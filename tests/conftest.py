"""Fixtures shared by the test modules."""

import pytest

from spinorsheaf import clifford, homalg


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


@pytest.fixture
def wrong_group_inverse(monkeypatch):
    """Make ``GroupElement.inverse_element`` return g^-1 + 1.  Right
    multiplication by it takes F-H6a's module off the module of g W g^-1,
    so ``equivariance_check`` raises SpanError from its graded map."""
    real = clifford.GroupElement.inverse_element.fget
    monkeypatch.setattr(clifford.GroupElement, "inverse_element", property(
        lambda g: real(g) + clifford.CliffordElement.scalar(g.space, 1)))
