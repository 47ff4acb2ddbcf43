"""Fixtures shared by the test modules."""

import pytest

from spinorsheaf import homalg


@pytest.fixture
def corrupted_image(monkeypatch):
    """Add 1 to coordinate 1 of the first generator image that
    ``hom_space`` reads off its kernel.  On F-H6 that vector no longer
    satisfies w.x = 0, for End(I) and for the Hom into the dual, so its map
    is no module map (coordinate 0 of End(I)'s image is g itself, and the
    last one is the dual's counterpart, so neither would do)."""
    real = homalg.mat_rank_kernel

    def corrupted(m):
        rank, kernel = real(m)
        if not kernel:
            return rank, kernel
        x = list(kernel[0])
        x[1] += 1
        return rank, (tuple(x),) + kernel[1:]

    monkeypatch.setattr(homalg, "mat_rank_kernel", corrupted)
