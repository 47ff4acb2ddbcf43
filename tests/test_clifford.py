import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorsheaf import clifford
from spinorsheaf.clifford import (
    CliffordElement,
    GroupElement,
    _ctx,
    conjugate_subspace,
    multiply,
    reflect,
    trace_form,
    trace_pairing_nondegenerate,
)
from spinorsheaf.errors import PreconditionError, SpanError
from spinorsheaf.exactalg import Mat, vec
from spinorsheaf.fixtures import FIXTURE_LABELS, get_fixture, grid_spaces
from spinorsheaf.quadform import QuadraticSpace, Subspace

from dense_oracles import (
    canonical,
    dense_trace_pairing_nondegenerate,
    grade_parts,
    left_action_matrix,
    monomial,
    per_entry_table,
    transpose_anti,
    vector_part,
)


def e(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def mono(space, *indices):
    return monomial(space, indices)


class TestMultiply:
    def test_isotropic_square(self):
        space = get_fixture("F-H6").space
        e3 = mono(space, 3)
        assert multiply(e3, e3).is_zero()

    def test_hyperbolic_relation(self):
        space = get_fixture("F-H6").space
        e0, e3 = mono(space, 0), mono(space, 3)
        assert multiply(e0, e3) + multiply(e3, e0) == CliffordElement.scalar(space, 1)

    def test_idempotent_product(self):
        # e0e3 * e0e3 = e0 (1 - e0 e3) e3 = e0e3
        space = get_fixture("F-H6").space
        x = mono(space, 0, 3)
        assert multiply(x, x) == x

    def test_vector_square_is_q(self):
        space = get_fixture("F-H6").space
        v = CliffordElement.from_vector(space, vec((1, 0, 0, 1, 0, 0)))
        assert multiply(v, v) == CliffordElement.scalar(space, 1)

    def test_space_mismatch(self):
        a = CliffordElement.scalar(get_fixture("F-H6").space, 1)
        b = CliffordElement.scalar(get_fixture("F-QS").space, 1)
        with pytest.raises(PreconditionError):
            multiply(a, b)

    def test_associative_exhaustive_small(self):
        for space, _ in grid_spaces(3):
            n = space.n
            if n > 3:
                continue
            monos = [
                CliffordElement(space, {m: Fraction(1)}) for m in range(1 << n)
            ]
            for a, b, c in itertools.product(monos, repeat=3):
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            break  # one space of each small shape suffices per run

    def test_associative_n4(self):
        space = get_fixture("F-QS").space
        monos = [CliffordElement(space, {m: Fraction(1)}) for m in range(16)]
        for a, b, c in itertools.product(monos, repeat=3):
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_parity_respected(self):
        space = get_fixture("F-H6").space
        a = mono(space, 0, 3)  # even
        b = mono(space, 1)  # odd
        ev, od = grade_parts(multiply(a, b))
        assert ev.is_zero() and not od.is_zero()


class TestGrade:
    def test_scalar(self):
        space = get_fixture("F-H2").space
        one = CliffordElement.scalar(space, 1)
        ev, od = grade_parts(one)
        assert ev == one and od.is_zero()

    def test_mixed(self):
        space = get_fixture("F-H6").space
        x = mono(space, 0) + mono(space, 0, 3)
        ev, od = grade_parts(x)
        assert ev == mono(space, 0, 3)
        assert od == mono(space, 0)
        assert ev + od == x

    def test_triple(self):
        space = get_fixture("F-H6").space
        x = mono(space, 3, 4, 5)
        ev, od = grade_parts(x)
        assert ev.is_zero() and od == x


class TestTranspose:
    def test_vector_fixed(self):
        space = get_fixture("F-H6").space
        v = CliffordElement.from_vector(space, vec((1, 2, 0, 3, 0, 0)))
        assert transpose_anti(v) == v

    def test_pair_rewrites(self):
        # (e0 e3)^T = e3 e0 = 1 - e0 e3
        space = get_fixture("F-H6").space
        got = transpose_anti(mono(space, 0, 3))
        expected = CliffordElement.scalar(space, 1) - mono(space, 0, 3)
        assert got == expected

    def test_isotropic_triple_sign(self):
        space = get_fixture("F-H6").space
        got = transpose_anti(mono(space, 3, 4, 5))
        assert got == -mono(space, 3, 4, 5)

    def test_involution_and_antihom(self):
        space = get_fixture("F-QS").space
        xs = [
            mono(space, 0) + 2 * mono(space, 1, 2),
            CliffordElement.scalar(space, 3) + mono(space, 0, 1, 2, 3),
            mono(space, 2) - mono(space, 0, 1),
        ]
        for a in xs:
            assert transpose_anti(transpose_anti(a)) == a
            for b in xs:
                assert transpose_anti(multiply(a, b)) == multiply(
                    transpose_anti(b), transpose_anti(a)
                )


class TestTrace:
    def test_scalar_traceless(self):
        space = get_fixture("F-H6").space
        assert trace_form(CliffordElement.scalar(space, 1)) == 0

    def test_top_normalized(self):
        space = get_fixture("F-H6").space
        assert trace_form(mono(space, 0, 1, 2, 3, 4, 5)) == 1

    def test_pairing_nondegenerate_all_fixtures(self):
        for label in FIXTURE_LABELS:
            space = get_fixture(label).space
            assert dense_trace_pairing_nondegenerate(space)
            assert trace_pairing_nondegenerate(space)

    def test_pairing_certificate_matches_dense_gram_on_grid(self):
        seen = set()
        for space, _ in grid_spaces(6):
            if space.gram not in seen:
                seen.add(space.gram)
                assert trace_pairing_nondegenerate(space) == \
                    dense_trace_pairing_nondegenerate(space)
        assert len(seen) == 15

    @staticmethod
    def _certified_space():
        space = QuadraticSpace(get_fixture("F-H6").space.gram)
        assert trace_pairing_nondegenerate(space)
        return space, _ctx(space)

    def test_pairing_certificate_rejects_a_wrong_leading_term(self):
        space, ctx = self._certified_space()
        # e2 * e0e1 = e0e1e2, entry 2 of the row of e0e1: flip its sign
        row = ctx.vec_cache[0b011]
        assert row[2] == {0b111: 1}
        ctx.vec_cache[0b011] = row[:2] + ({0b111: Fraction(-1)},) + row[3:]
        assert not trace_pairing_nondegenerate(space)

    def test_pairing_certificate_rejects_a_degree_raising_term(self):
        space, ctx = self._certified_space()
        # e0 * e1, entry 0 of the row of e1, gains a term of degree 3
        row = ctx.vec_cache[0b010]
        ctx.vec_cache[0b010] = ({0b011: Fraction(1), 0b111000: Fraction(1)},) + row[1:]
        assert not trace_pairing_nondegenerate(space)

    def test_pairing_certificate_rejects_a_zero_antidiagonal_trace(self, monkeypatch):
        space, _ = self._certified_space()
        real = clifford.trace_form

        def zero_at_e0e2(a, b=None):
            return Fraction(0) if a.terms == {0b101: 1} else real(a, b)

        monkeypatch.setattr(clifford, "trace_form", zero_at_e0e2)
        assert not trace_pairing_nondegenerate(space)

    def test_vector_commutation_sign(self):
        # tr(v xi) = (-1)^(n-1) tr(xi v), exhaustively for n <= 4
        seen = set()
        for space, _ in grid_spaces(4):
            if space.gram in seen:
                continue
            seen.add(space.gram)
            n = space.n
            sign = (-1) ** (n - 1)
            vs = [CliffordElement.from_vector(space, e(n, i)) for i in range(n)]
            monos = [CliffordElement(space, {m: Fraction(1)}) for m in range(1 << n)]
            for v in vs:
                for xi in monos:
                    assert trace_form(multiply(v, xi)) == sign * trace_form(
                        multiply(xi, v)
                    )


class TestLeftAction:
    def test_zero_vector(self):
        space = get_fixture("F-H2").space
        m = left_action_matrix(
            vec((0, 0)), [mono(space, 0, 1)], [mono(space, 1)]
        )
        assert m == Mat.zeros(1, 1)

    def test_fh2_actions(self):
        space = get_fixture("F-H2").space
        dom = [mono(space, 0, 1)]
        cod = [mono(space, 1)]
        assert left_action_matrix(e(2, 0), dom, cod) == Mat.zeros(1, 1)
        assert left_action_matrix(e(2, 1), dom, cod) == Mat.from_rows([[1]])

    def test_escape_reported_with_witness(self):
        space = get_fixture("F-H2").space
        with pytest.raises(SpanError) as exc:
            left_action_matrix(e(2, 0), [mono(space, 1)], [mono(space, 1)])
        assert exc.value.witness is not None


class TestReflect:
    def test_orthogonal_fixed(self):
        space = get_fixture("F-H6").space
        u = vec((1, 0, 0, 1, 0, 0))  # q = 1
        v = e(6, 1)
        assert reflect(space, u, v) == v

    def test_axis_negated(self):
        space = get_fixture("F-H6").space
        u = vec((1, 0, 0, 1, 0, 0))
        assert reflect(space, u, u) == tuple(-x for x in u)

    def test_hyperbolic_swap(self):
        space = get_fixture("F-H6").space
        u = vec((1, 0, 0, 1, 0, 0))
        got = reflect(space, u, e(6, 0))
        assert got == tuple(-x for x in e(6, 3))

    def test_preserves_q(self):
        space = get_fixture("F-C5").space
        u = vec((1, 0, 1, 0, 0))  # q = 1
        for v in [e(5, i) for i in range(5)] + [vec((1, 2, 3, 4, 5))]:
            assert space.q(reflect(space, u, v)) == space.q(v)

    def test_isotropic_axis_rejected(self):
        space = get_fixture("F-H6").space
        with pytest.raises(PreconditionError):
            reflect(space, e(6, 0), e(6, 1))

    def test_agrees_with_clifford_conjugation(self):
        space = get_fixture("F-H6").space
        u = vec((1, 0, 0, 2, 0, 0))  # q = 2
        uelt = CliffordElement.from_vector(space, u)
        uinv = uelt.scale(Fraction(1, 2))
        for i in range(6):
            velt = CliffordElement.from_vector(space, e(6, i))
            conj = multiply(multiply(uelt, velt), uinv).scale(-1)
            assert conj == CliffordElement.from_vector(
                space, reflect(space, u, e(6, i))
            )


@st.composite
def fqs_elements(draw):
    space = get_fixture("F-QS").space
    terms = draw(
        st.dictionaries(
            st.integers(0, 15),
            st.fractions(max_denominator=4, min_value=-3, max_value=3),
            max_size=5,
        )
    )
    return CliffordElement(space, {m: Fraction(c) for m, c in terms.items()})


class TestRandomizedAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(fqs_elements(), fqs_elements(), fqs_elements())
    def test_associativity(self, a, b, c):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @settings(max_examples=40, deadline=None)
    @given(fqs_elements(), fqs_elements())
    def test_transpose_antihom(self, a, b):
        assert transpose_anti(multiply(a, b)) == multiply(
            transpose_anti(b), transpose_anti(a)
        )

    @settings(max_examples=40, deadline=None)
    @given(fqs_elements())
    def test_grade_parts_sum(self, a):
        ev, od = grade_parts(a)
        assert ev + od == a


class TestGroup:
    def test_empty_product_fixes(self):
        fx = get_fixture("F-H6")
        g = GroupElement(fx.space, [])
        assert conjugate_subspace(g, fx.w).same_span(fx.w)

    def test_orthogonal_factor_fixes_span(self):
        fx = get_fixture("F-H6")
        u = vec((0, 1, 0, 0, 1, 0))
        g = GroupElement(fx.space, [u])
        w = Subspace(fx.space, [e(6, 3)])
        assert conjugate_subspace(g, w).same_span(w)

    def test_double_reflection_moves_w(self):
        fx = get_fixture("F-H6")
        g = GroupElement(fx.space, [vec((1, 0, 0, 1, 0, 0)), vec((0, 1, 0, 0, 1, 0))])
        got = conjugate_subspace(g, fx.w)
        expected = Subspace(fx.space, [e(6, 0), e(6, 1), e(6, 5)])
        assert got.same_span(expected)

    def test_transpose_times_self(self):
        space = get_fixture("F-H6").space
        factors = [vec((1, 0, 0, 1, 0, 0)), vec((0, 1, 0, 0, 2, 0))]
        g = GroupElement(space, factors)
        prod = multiply(transpose_anti(g.as_element), g.as_element)
        expected = Fraction(1)
        for f in factors:
            expected *= space.q(f)
        assert prod == CliffordElement.scalar(space, expected)

    def test_inverse(self):
        space = get_fixture("F-C5").space
        g = GroupElement(space, [vec((1, 0, 1, 0, 0)), vec((0, 1, 0, 3, 0))])
        assert multiply(g.as_element, g.inverse_element) == CliffordElement.scalar(space, 1)

    def test_isotropic_factor_rejected(self):
        space = get_fixture("F-H6").space
        with pytest.raises(PreconditionError):
            GroupElement(space, [e(6, 0)])

    def test_conjugation_matches_algebra(self):
        space = get_fixture("F-H6").space
        g = GroupElement(space, [vec((1, 0, 0, 1, 0, 0)), vec((0, 1, 0, 0, 1, 0))])
        ginv = g.inverse_element
        for i in range(6):
            velt = CliffordElement.from_vector(space, e(6, i))
            conj = multiply(multiply(g.as_element, velt), ginv)
            assert vector_part(conj) == g.conjugate_vector(e(6, i))


class TestContext:
    @staticmethod
    def _table_spaces():
        from test_spinor import NON_INTEGRAL_FIXTURE

        from spinorsheaf.fixtures import fixture_from_dict

        spaces = [get_fixture(label).space for label in FIXTURE_LABELS]
        grams = set()
        for space, _ in grid_spaces(6):
            if space.gram not in grams:
                grams.add(space.gram)
                spaces.append(space)
        assert len(grams) == 15
        return spaces + [fixture_from_dict(NON_INTEGRAL_FIXTURE).space]

    def test_rows_match_the_per_entry_recursion(self):
        # every row, e_i * e_mask for all i, against the oracle entry by
        # entry, canonical, and filled once: one row per monomial
        for space in self._table_spaces():
            ctx, entry = _ctx(QuadraticSpace(space.gram)), per_entry_table(space)
            for mask in range(1 << ctx.n):
                row = ctx.vec_row(mask)
                assert len(row) == ctx.n and ctx.vec_row(mask) is row
                for i, prod in enumerate(row):
                    assert prod == entry(i, mask), (space.gram, i, mask)
                    assert all(c and canonical(c) for c in prod.values())
            assert len(ctx.vec_cache) == 1 << ctx.n

    def test_vec_images_reads_rows(self):
        # a coefficient-1 monomial gives the row's own dicts; any other
        # element gives e_i * x for each i, term by term
        for space in self._table_spaces():
            ctx = _ctx(QuadraticSpace(space.gram))
            n = ctx.n
            for mask in range(1 << n):
                row = ctx.vec_row(mask)
                got = ctx.vec_images({mask: 1})
                assert all(a is b for a, b in zip(got, row)) and len(got) == n
            elements = [{0b1: 2}, {0b11: Fraction(-1, 3)}, {0: 1, 0b101: 1},
                        {0b1: 1, 0b10: Fraction(1, 2), 0b111: -3}, {}]
            elements.append({m: 1 + m % 3 for m in range(1 << n)})
            for terms in elements:
                terms = {m: c for m, c in terms.items() if m < 1 << n}
                want = [ctx.vec_mul_terms(i, terms) for i in range(n)]
                assert list(ctx.vec_images(terms)) == want

    def test_context_holds_no_reference_to_its_space(self):
        import gc

        from spinorsheaf.clifford import _ctx
        from spinorsheaf.quadform import QuadraticSpace

        space = QuadraticSpace(Mat.from_rows(
            [[0, 0, Fraction(1, 2), 0], [0, 0, 0, Fraction(1, 2)],
             [Fraction(1, 2), 0, 0, 0], [0, Fraction(1, 2), 0, 0]]))
        ctx = _ctx(space)
        multiply(mono(space, 0, 1), mono(space, 1, 2, 3))  # fill the cache
        assert ctx.vec_cache
        # walk everything the context holds through plain containers
        seen = set()
        stack = [ctx]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            assert obj is not space and obj is not space.gram
            if obj is ctx or isinstance(obj, (dict, list, tuple, set, frozenset)):
                stack.extend(gc.get_referents(obj))

    def test_dropped_space_needs_no_cycle_collection(self):
        import gc

        from spinorsheaf.clifford import _ctx
        from spinorsheaf.quadform import QuadraticSpace

        space = QuadraticSpace(Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
        multiply(mono(space, 0), mono(space, 0, 1))
        probe = _ctx(space).vec_cache
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del space
            # reference counting alone frees the space and its context
            assert not any(r is probe for o in gc.get_objects()
                           if type(o).__name__ == "_Context"
                           for r in gc.get_referents(o))
        finally:
            if was_enabled:
                gc.enable()
