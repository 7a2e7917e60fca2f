"""h-differential forms, Koszul fibers, and Betti numbers."""

import random
from fractions import Fraction
from math import comb

import pytest

import torf.complexes
import torf.monoids
from torf.errors import DegreeNotInSupport, NotWeaklyNormal
from torf.cones import (
    cone_from_generators,
    face_fan_closure,
    fan_minimal_cone,
    fan_validate,
    locate,
    subfan,
)
from torf.complexes import (
    complex_from_monoid_subfan,
    full_complex,
    is_seminormal_complex,
    support_box,
    wn_complex,
)
from torf.derham import (
    alpha,
    betti,
    differential,
    fiber_cohomology,
    fiber_complex,
    fiber_space,
    hdiff_general,
    pair_dims,
)
from torf.fixtures import fixture, fixture_names
from torf.linalg import IntMatrix, solve_integer
from torf.monoids import (
    AffineMonoid,
    Characteristic,
    box_points,
    member,
    monoid_cone,
)

from reference import form_add, make_form, module_action, restrict

QUAD = cone_from_generators(2, [(1, 0), (0, 1)])
XRAY = cone_from_generators(2, [(1, 0)])
YRAY = cone_from_generators(2, [(0, 1)])
ZERO2 = cone_from_generators(2, [])


def n2():
    return full_complex(face_fan_closure(2, [QUAD]))


def torus2():
    c = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    return full_complex(face_fan_closure(2, [c]))


def axes_fan():
    return fan_validate(2, [XRAY, YRAY, ZERO2])


def fixture_wn0(name):
    """A fixture's characteristic-zero weak normalization."""
    return wn_complex(fixture(name).complex, Characteristic(0))


def random_form(x, p, rng, box=3):
    degs = list(support_box(x, box))
    mapping = {}
    for m in rng.sample(degs, min(4, len(degs))):
        d = fiber_space(x, m).dim
        mapping[m] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(comb(d, p)))
    return make_form(x, p, mapping)


class TestFiberSpaces:
    def test_dims(self):
        x = n2()
        assert fiber_space(torus2(), (5, -7)).dim == 2
        assert fiber_space(x, (1, 0)).dim == 1
        assert fiber_space(x, (0, 0)).dim == 0
        assert fiber_space(x, (2, 3)).dim == 2

    def test_degree_not_in_support(self):
        with pytest.raises(DegreeNotInSupport):
            fiber_space(n2(), (-1, 0))

    def test_weak_normality_required(self):
        s = AffineMonoid.make(1, [(2,), (3,)])
        x = complex_from_monoid_subfan(s, face_fan_closure(1, [monoid_cone(s)]))
        for entry in (fiber_space, alpha, fiber_complex, fiber_complex):  # a refusal is not cached
            with pytest.raises(NotWeaklyNormal):
                entry(x, (2,))

    def test_alpha_coordinates(self):
        x = n2()
        assert alpha(x, (0, 0)) == ()
        a = alpha(x, (1, 1))
        fs = fiber_space(x, (1, 1))
        b = IntMatrix.from_cols([tuple(v) for v in fs.basis], nrows=2)
        assert b.mul_vec(a) == (1, 1)

    @pytest.mark.parametrize("m", [(1.7, 0), ("1", 0), (1.0, 0)])
    def test_degree_is_an_integer(self, m):
        """A float or a string is refused, not truncated to another degree,
        also where the equal integer degree is cached."""
        fiber_complex(torus2(), (1, 0))
        for entry in (fiber_space, fiber_complex):
            with pytest.raises(TypeError):
                entry(torus2(), m)

    def test_fiber_complex_keeps_the_degree_it_computed(self):
        class Two:
            def __index__(self):
                return 2

        fc = fiber_complex(torus2(), (Two(), -1))
        assert fc == fiber_complex(torus2(), (2, -1))
        assert [type(v) for v in fc.degree] == [int, int]


class TestFibers:
    def test_zero_degree_fiber(self):
        t = torus2()
        dims = fiber_cohomology(fiber_complex(t, (0, 0)))
        assert dims == [1, 2, 1]

    def test_nonzero_degree_exact(self):
        t = torus2()
        for m in [(1, 0), (2, -1), (-3, 5)]:
            assert fiber_cohomology(fiber_complex(t, m)) == [0, 0, 0]

    def test_n2_interior_degree(self):
        assert fiber_cohomology(fiber_complex(n2(), (1, 1))) == [0, 0, 0]

    def test_matrices_compose_to_zero(self):
        t = torus2()
        fc = fiber_complex(t, (3, 2))
        for p in range(len(fc.matrices) - 1):
            prod = fc.matrices[p + 1].mul(fc.matrices[p])
            assert all(e == 0 for e in prod.entries)

    @pytest.mark.parametrize("name", fixture_names())
    def test_matrices_compose_to_zero_on_fixtures(self, name):
        x = fixture_wn0(name)
        for m in support_box(x, 4):
            mats = fiber_complex(x, m).matrices
            for p in range(len(mats) - 1):
                assert all(e == 0 for e in mats[p + 1].mul(mats[p]).entries), (m, p)


class TestDifferential:
    def test_d_of_constant(self):
        x = n2()
        w = make_form(x, 0, {(0, 0): (1,)})
        assert differential(x, w).terms == ()

    def test_dd_zero(self):
        rng = random.Random(50)
        for x in (torus2(), n2()):
            for p in (0, 1):
                for _ in range(25):
                    w = random_form(x, p, rng)
                    assert differential(x, differential(x, w)).terms == ()

    def test_degree_preservation(self):
        rng = random.Random(51)
        x = torus2()
        for _ in range(20):
            w = random_form(x, 0, rng)
            dw = differential(x, w)
            assert {m for m, _ in dw.terms} <= {m for m, _ in w.terms}

    def test_explicit_value(self):
        x = n2()
        w = make_form(x, 0, {(1, 1): (1,)})
        dw = differential(x, w)
        assert dw.terms == (((1, 1), (Fraction(1), Fraction(1))),)


class TestModuleAction:
    def test_identity_action(self):
        rng = random.Random(52)
        x = n2()
        for p in (0, 1):
            w = random_form(x, p, rng)
            assert module_action(x, (0, 0), w) == w

    def test_killing_action(self):
        s = AffineMonoid.make(2, [(1, 0), (0, 1)])
        x = complex_from_monoid_subfan(s, axes_fan())
        w = make_form(x, 0, {(1, 0): (1,)})
        assert module_action(x, (0, 1), w).terms == ()

    def test_inclusion_action(self):
        x = n2()
        w = make_form(x, 1, {(1, 0): (1,)})
        out = module_action(x, (0, 1), w)
        assert len(out.terms) == 1
        m, coords = out.terms[0]
        assert m == (1, 1)
        fs = fiber_space(x, (1, 1))
        b = IntMatrix.from_cols([tuple(v) for v in fs.basis], nrows=2)
        vec = tuple(
            sum(coords[j] * b.entry(i, j) for j in range(2)) for i in range(2)
        )
        assert vec == (1, 0)

    def test_leibniz(self):
        rng = random.Random(53)
        for x in (torus2(), n2()):
            degs = list(support_box(x, 2))
            for p in (0, 1):
                for _ in range(15):
                    w = random_form(x, p, rng)
                    mp = rng.choice(degs)
                    lhs = differential(x, module_action(x, mp, w))
                    moved = module_action(x, mp, w)
                    corr = {}
                    for m2, coords in moved.terms:
                        fs = fiber_space(x, m2)
                        b = IntMatrix.from_cols(
                            [tuple(v) for v in fs.basis], nrows=2
                        )
                        amp = solve_integer(b, mp)
                        from torf.derham import _wedge_map

                        mat = _wedge_map(amp, fs.dim, p)
                        corr[m2] = tuple(
                            sum(
                                Fraction(mat.entry(i, j)) * coords[j]
                                for j in range(mat.cols)
                            )
                            for i in range(mat.rows)
                        )
                    rhs = form_add(
                        make_form(x, p + 1, corr),
                        module_action(x, mp, differential(x, w)),
                    )
                    assert lhs == rhs


class TestRestriction:
    def test_drop_and_keep(self):
        x = n2()
        w = make_form(x, 0, {(1, 0): (1,), (0, 2): (2,)})
        r = restrict(x, w, XRAY)
        assert r.terms == (((1, 0), (Fraction(1),)),)

    def test_commutes_with_differential(self):
        rng = random.Random(54)
        x = n2()
        for _ in range(20):
            w = random_form(x, 1, rng)
            assert restrict(x, differential(x, w), XRAY) == differential(
                x, restrict(x, w, XRAY)
            )


class TestPairsAndBetti:
    def test_pair_filter(self):
        per_degree, _ = pair_dims(n2(), axes_fan(), 0, 1)
        assert (1, 1) in per_degree and (1, 0) not in per_degree and (0, 0) not in per_degree

    def test_betti_tables(self):
        assert betti(torus2(), box_bound=4).dims == (1, 2, 1)
        assert betti(torus2(), theoretical=True).dims == (1, 2, 1)
        assert betti(n2(), box_bound=4).dims == (1, 0, 0)
        assert betti(n2(), pair_subfan=axes_fan(), box_bound=4).dims == (0, 0, 0)

    def test_betti_crossing_lines(self):
        s = AffineMonoid.make(2, [(1, 0), (0, 1)])
        x = complex_from_monoid_subfan(s, axes_fan())
        assert betti(x, box_bound=4).dims == (1, 0, 0)
        assert betti(x, theoretical=True).dims == (1, 0, 0)

    def test_pair_dims_decomposition(self):
        x = n2()
        per_degree, decomposition = pair_dims(x, axes_fan(), 1, 3)
        assert per_degree[(1, 1)] == 2
        total = sum(per_degree.values())
        rhs = sum(sum(b.values()) for b in decomposition.values())
        assert total == rhs

    @pytest.mark.parametrize("name", [n for n in fixture_names() if fixture(n).pairs])
    def test_pair_dims_against_cone_major_enumeration(self, name):
        x = fixture_wn0(name)
        for sub in fixture(name).pairs.values():
            for p in range(x.ambient_rank + 1):
                per_degree, decomposition = pair_dims(x, sub, p, 4)
                expected = {}
                for c, s in x.assignment:
                    if c not in sub:
                        box = box_points(x.ambient_rank, 4)
                        expected[c] = {tuple(m): comb(c.dim, p) for m in box
                                       if locate(c, m) == c and member(s, m)}
                assert decomposition == expected
                flat = {}
                for block in decomposition.values():
                    assert flat.keys().isdisjoint(block)
                    flat.update(block)
                assert flat == per_degree
                assert per_degree == {m: comb(fiber_space(x, m).dim, p) for m in per_degree}

    def test_exact_sequence_dims(self):
        x = n2()
        sub = axes_fan()
        from torf.complexes import in_support, subcomplex

        y = subcomplex(x, sub)
        for p in range(3):
            pd, _ = pair_dims(x, sub, p, 4)
            for m in support_box(x, 4):
                dx = comb(fiber_space(x, m).dim, p)
                dy = comb(fiber_space(x, m).dim, p) if in_support(y, m) else 0
                # on the subcomplex the stratum is the same cone's lattice
                assert dx == dy + pd.get(m, 0)


class TestHdiffGeneral:
    def test_numeric_semigroup(self):
        s = AffineMonoid.make(1, [(2,), (3,)])
        x = complex_from_monoid_subfan(s, face_fan_closure(1, [monoid_cone(s)]))
        dims = hdiff_general(x, 0, 3)
        assert dims[(1,)] == 1
        assert dims[(0,)] == 1

    def test_agrees_on_weakly_normal(self):
        x = n2()
        dims = hdiff_general(x, 1, 3)
        for m in support_box(x, 3):
            assert dims[m] == comb(fiber_space(x, m).dim, 1)

    def test_pinch_missing_degree(self):
        fx = fixture("pinch")
        dims = hdiff_general(fx.complex, 1, 2)
        assert (1, 0) not in dims
        assert dims[(2, 0)] == 1


class TestNoMemberSearchAfterTheVerdict:
    """Once the memoized seminormality verdict is in, the de Rham layer reads
    the lattice family: no membership search and no realized complex."""

    @pytest.mark.parametrize(
        "name", [n for n in fixture_names() if is_seminormal_complex(fixture(n).complex)])
    def test_fixture(self, name, monkeypatch):
        fx = fixture(name)
        x = fx.complex
        assert is_seminormal_complex(x)
        degrees = list(support_box(x, 2))
        pairs = list(fx.pairs.values()) + [subfan(x.fan, [fan_minimal_cone(x.fan)])]

        def refuse(*_args):
            raise AssertionError("membership search or realization after the verdict")

        for module, attr in ((torf.monoids, "member"), (torf.complexes, "member"),
                             (torf.monoids, "from_strata"), (torf.complexes, "from_strata"),
                             (torf.complexes, "complex_validate")):
            monkeypatch.setattr(module, attr, refuse)
        for theoretical in (False, True):
            assert betti(x, box_bound=3, theoretical=theoretical).dims[0] == 1
            for sub in pairs:
                betti(x, pair_subfan=sub, box_bound=3, theoretical=theoretical)
        for sub in pairs:
            pair_dims(x, sub, 1, 3)
        assert hdiff_general(x, 0, 2) == dict.fromkeys(degrees, 1)
        for m in degrees:
            assert len(alpha(x, m)) == fiber_space(x, m).dim
        mapping = {m: (1,) * comb(fiber_space(x, m).dim, 1) for m in degrees[-4:]}
        w = make_form(x, 1, mapping)
        differential(x, w)
        for mp in degrees[:4]:
            module_action(x, mp, w)
