"""Monoidal complexes, their rings, orbits, and classification."""

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import torf.complexes
import torf.cones
from torf.errors import (
    BadIntersection,
    BadLatticeFamily,
    CompatibilityFailure,
    ConeNotInFan,
    GenerationFailure,
    NotASubfan,
    NotWeaklyNormal,
    TorfError,
)
from torf.cones import (
    cone_from_generators,
    face_fan_closure,
    faces,
    fan_validate,
    subfan,
)
from torf.complexes import (
    RingElem,
    classify,
    complex_from_lattice_family,
    complex_from_monoid_subfan,
    complex_validate,
    components,
    degrees_multiply,
    full_complex,
    germ_at,
    in_support,
    is_seminormal,
    is_seminormal_complex,
    is_weakly_normal,
    is_weakly_normal_complex,
    orbits,
    ring_mult,
    sn_complex,
    subcomplex,
    support_box,
    support_locate,
    wn_complex,
)
from torf.derham import (
    betti,
    differential,
    fiber_cohomology,
    fiber_complex,
    fiber_space,
    hdiff_general,
    pair_dims,
)
from torf.fixtures import fixture, fixture_names
from torf.linalg import Sublattice
from torf.model import build_complex, parse_model
from torf.monoids import (
    AffineMonoid,
    Characteristic,
    _simplices,
    box_points,
    check_family,
    face_restriction,
    member,
    monoid_cone,
    stratum_index,
    wn_family,
)

from reference import (
    _inclusion_matrix,
    _wedge_power,
    complex_validate_all_pairs,
    is_seminormal_complex_facetwise,
    is_weakly_normal_complex_by_lattice,
    is_weakly_normal_facetwise,
    is_weakly_normal_inline,
    make_form,
    module_action,
    monoid_equal,
    normalize_cone_by_cone,
    realize_cone_by_cone,
    ring_add,
    ring_restrict,
    saturated_by_cone,
    span_lattice,
)
from scale_models import cube
from test_package import fresh

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
QUAD = cone_from_generators(2, [(1, 0), (0, 1)])
XRAY = cone_from_generators(2, [(1, 0)])
YRAY = cone_from_generators(2, [(0, 1)])
ZERO2 = cone_from_generators(2, [])


def n2_complex():
    return full_complex(face_fan_closure(2, [QUAD]))


def axes_complex():
    s = AffineMonoid.make(2, [(1, 0), (0, 1)])
    return complex_from_monoid_subfan(s, fan_validate(2, [XRAY, YRAY, ZERO2]))


def pinch_complex():
    s = AffineMonoid.make(2, [(2, 0), (0, 1), (1, 1)])
    return complex_from_monoid_subfan(s, face_fan_closure(2, [monoid_cone(s)]))


class TestValidation:
    def test_full_complex_valid(self):
        x = n2_complex()
        assert len(x.cones()) == 4

    def test_generation_failure(self):
        table = {c: AffineMonoid.make(2, [g for g in [(1, 0), (0, 1)] if c.contains(g)])
                 for c in faces(QUAD)}
        table[QUAD] = AffineMonoid.make(2, [(1, 0)])
        with pytest.raises(GenerationFailure):
            complex_validate(2, face_fan_closure(2, [QUAD]), table)

    def test_incompatible_face_monoid(self):
        s = AffineMonoid.make(2, [(2, 0), (0, 1), (1, 1)])
        table = {c: AffineMonoid.make(2, [g for g in s.generators if c.contains(g)])
                 for c in faces(QUAD)}
        table[XRAY] = AffineMonoid.make(2, [(4, 0)])
        with pytest.raises(CompatibilityFailure) as exc:
            complex_validate(2, face_fan_closure(2, [QUAD]), table)
        assert exc.value.witness == (2, 0)

    def test_first_of_two_incompatible_pairs(self):
        # both half-axes on x are too small: the pair checked first is the one
        # whose cone comes first in canonical order
        left = cone_from_generators(2, [(-1, 0), (0, 1)])
        fan = face_fan_closure(2, [QUAD, left])
        table = {c: AffineMonoid.make(2, [g for g in ((1, 0), (0, 1), (-1, 0)) if c.contains(g)])
                 for c in fan}
        xneg = cone_from_generators(2, [(-1, 0)])
        table[xneg] = AffineMonoid.make(2, [(-2, 0)])
        table[XRAY] = AffineMonoid.make(2, [(2, 0)])
        with pytest.raises(CompatibilityFailure) as exc:
            complex_validate(2, fan, table)
        assert (exc.value.face, exc.value.cone, exc.value.witness) == (xneg, left, (-1, 0))

    def quad_table(self, xray_gens):
        table = {c: AffineMonoid.make(2, [g for g in [(1, 0), (0, 1)] if c.contains(g)])
                 for c in faces(QUAD)}
        table[XRAY] = AffineMonoid.make(2, xray_gens)
        return table

    def test_face_monoid_with_a_facet_generator_outside_its_face(self):
        # (0, 1) is in S_QUAD but not in XRAY: membership in S_QUAD alone would pass it
        with pytest.raises(CompatibilityFailure) as exc:
            complex_validate(2, face_fan_closure(2, [QUAD]), self.quad_table([(1, 0), (0, 1)]))
        assert (exc.value.face, exc.value.cone, exc.value.witness) == (XRAY, QUAD, (0, 1))

    def test_face_monoid_not_generating_its_face_is_incompatible(self):
        # only facets are checked for generation; a face monoid that fails it
        # differs from its facet's restriction, which generates the face
        fan, table = face_fan_closure(2, [QUAD]), self.quad_table([])
        with pytest.raises(CompatibilityFailure) as exc:
            complex_validate(2, fan, table)
        assert (exc.value.face, exc.value.cone, exc.value.witness) == (XRAY, QUAD, (1, 0))
        with pytest.raises(GenerationFailure):
            complex_validate_all_pairs(2, fan, table)


@st.composite
def perturbations(draw, x):
    """One generator of one cone's monoid of x scaled, dropped, replaced or
    added: (the cone, the monoid table)."""
    n = x.ambient_rank
    c, s = draw(st.sampled_from(x.assignment))
    gens = list(s.generators)
    kind = draw(st.sampled_from(("scale", "drop", "replace", "add") if gens else ("add",)))
    i = draw(st.integers(0, len(gens) - 1)) if gens else None
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    if kind == "scale":
        gens[i] = tuple(draw(st.integers(2, 3)) * v for v in gens[i])
    elif kind == "drop":
        del gens[i]
    elif kind == "replace":
        gens[i] = draw(vector)
    else:
        gens.append(draw(vector))
    return c, {**dict(x.assignment), c: AffineMonoid.make(n, gens)}


def validation_outcome(validate, fan, table):
    try:
        validate(fan.ambient_rank, fan, table)
    except TorfError as e:
        return e
    return None


class TestValidationAgainstAllPairs:
    """Checking the facets and their faces accepts exactly what checking every
    cone and every (face, cone) pair accepts, and reports the same error when
    the changed monoid is a facet's."""

    def check(self, fan, c, table):
        got = validation_outcome(complex_validate, fan, table)
        want = validation_outcome(complex_validate_all_pairs, fan, table)
        assert (got is None) == (want is None)
        if got is None:
            assert complex_validate(fan.ambient_rank, fan, table).assignment == \
                complex_validate_all_pairs(fan.ambient_rank, fan, table)
        elif c in fan.facets:
            assert (type(got), vars(got)) == (type(want), vars(want))

    @pytest.mark.parametrize("name", fixture_names())
    @settings(PROPERTY, max_examples=25)
    @given(data=st.data())
    def test_fixtures(self, name, data):
        x = fixture(name).complex
        self.check(x.fan, *data.draw(perturbations(x)))

    @settings(PROPERTY, max_examples=100)
    @given(data=st.data())
    def test_random_complexes(self, data):
        x = data.draw(monoid_complexes())
        self.check(x.fan, *data.draw(perturbations(x)))


class TestSupport:
    def test_locate(self):
        x = n2_complex()
        assert support_locate(x, (1, 1)) == QUAD
        assert support_locate(x, (3, 0)) == XRAY
        assert support_locate(x, (0, 0)) == ZERO2
        assert support_locate(x, (-1, 0)) is None

    def test_locate_respects_monoid(self):
        x = pinch_complex()
        assert support_locate(x, (1, 0)) is None
        assert support_locate(x, (2, 0)) == XRAY

    @pytest.mark.parametrize("m", [(2.0, 0), (2.9, 0), ("2", 0)])
    def test_locate_refuses_non_integers(self, m):
        with pytest.raises(TypeError):
            support_locate(pinch_complex(), m)

    def test_axes_support(self):
        x = axes_complex()
        assert in_support(x, (5, 0)) and in_support(x, (0, 2))
        assert not in_support(x, (1, 1))

    def test_locate_unique_on_box(self):
        x = pinch_complex()
        for m in support_box(x, 5):
            hits = [c for c in x.cones()
                    if support_locate(x, m) == c]
            assert len(hits) == 1

    @pytest.mark.parametrize("name", fixture_names())
    def test_support_box_locates_each_degree(self, name):
        x = fixture(name).complex
        located = [(tuple(m), support_locate(x, m)) for m in box_points(x.ambient_rank, 3)]
        assert list(support_box(x, 3).items()) == [(m, c) for m, c in located if c is not None]


class TestRing:
    def test_truncated_product(self):
        x = axes_complex()
        a = RingElem.make(x, {(1, 0): 1})
        b = RingElem.make(x, {(0, 1): 1})
        assert ring_mult(x, a, b) == RingElem.zero()
        c = RingElem.make(x, {(2, 0): 1})
        assert ring_mult(x, a, c) == RingElem.make(x, {(3, 0): 1})

    def test_unit(self):
        x = axes_complex()
        one = RingElem.make(x, {(0, 0): 1})
        a = RingElem.make(x, {(1, 0): 2, (0, 3): Fraction(-1, 2)})
        assert ring_mult(x, one, a) == a
        assert ring_mult(x, a, one) == a

    @pytest.mark.parametrize("m", [(1.0, 0), (1.5, 0), ("1", 0)])
    def test_degrees_are_integers(self, m):
        with pytest.raises(TypeError):
            RingElem.make(axes_complex(), {m: 1})

    def _random_elem(self, x, rng, degs):
        picks = rng.sample(degs, min(3, len(degs)))
        return RingElem.make(
            x, {m: Fraction(rng.randint(-4, 4)) for m in picks}
        )

    def test_commutative_associative(self):
        rng = random.Random(40)
        for x in (axes_complex(), pinch_complex()):
            degs = list(support_box(x, 4))
            for _ in range(25):
                a = self._random_elem(x, rng, degs)
                b = self._random_elem(x, rng, degs)
                c = self._random_elem(x, rng, degs)
                assert ring_mult(x, a, b) == ring_mult(x, b, a)
                assert ring_mult(x, ring_mult(x, a, b), c) == ring_mult(
                    x, a, ring_mult(x, b, c)
                )

    def test_restriction_is_ring_map(self):
        rng = random.Random(41)
        x = n2_complex()
        y = subcomplex(x, fan_validate(2, [XRAY, YRAY, ZERO2]))
        degs = list(support_box(x, 3))
        for _ in range(25):
            a = self._random_elem(x, rng, degs)
            b = self._random_elem(x, rng, degs)
            lhs = ring_restrict(x, y, ring_mult(x, a, b))
            rhs = ring_mult(y, ring_restrict(x, y, a), ring_restrict(x, y, b))
            assert lhs == rhs

    def test_restriction_additive(self):
        x = n2_complex()
        y = subcomplex(x, fan_validate(2, [XRAY, YRAY, ZERO2]))
        a = RingElem.make(x, {(1, 1): 1, (2, 0): 3})
        b = RingElem.make(x, {(1, 1): -1, (0, 1): 2})
        assert ring_restrict(x, y, ring_add(a, b)) == ring_add(
            ring_restrict(x, y, a), ring_restrict(x, y, b)
        )


class TestOrbits:
    def test_n2_table(self):
        t = orbits(n2_complex())
        assert len(t.rows) == 4
        assert sum(1 for r in t.rows if r[2]) == 1  # one facet
        closed = [r for r in t.rows if r[3]]
        assert len(closed) == 1 and closed[0][0] == ZERO2

    def test_components_of_crossing_lines(self):
        s = AffineMonoid.make(2, [(1, 0), (0, 1)])
        x = complex_from_monoid_subfan(s, fan_validate(2, [XRAY, YRAY, ZERO2]))
        comps = components(x)
        assert len(comps) == 2
        assert {len(c.cones()) for c in comps} == {2}

    def test_subcomplex_at_minimal_cone(self):
        x = n2_complex()
        y = subcomplex(x, fan_validate(2, [ZERO2]))
        assert len(y.cones()) == 1

    def test_subfan_check(self):
        x = n2_complex()
        other = cone_from_generators(2, [(1, 1)])
        with pytest.raises(NotASubfan):
            subcomplex(x, fan_validate(2, [other, ZERO2]))


class TestNormalization:
    def test_sn_of_numeric_semigroup_complex(self):
        s = AffineMonoid.make(1, [(2,), (3,)])
        x = complex_from_monoid_subfan(s, face_fan_closure(1, [monoid_cone(s)]))
        y = sn_complex(x)
        top = y.monoid_of(monoid_cone(s))
        assert top.generators == ((1,),)

    def test_wn_of_pinch(self):
        x = pinch_complex()
        y = wn_complex(x, Characteristic(2))
        assert y.monoid_of(QUAD).generators == ((0, 1), (1, 0))
        # characteristic 3 leaves the pinch untouched
        z = wn_complex(x, Characteristic(3))
        for c in x.cones():
            assert monoid_equal(z.monoid_of(c), x.monoid_of(c))

    def test_idempotence(self):
        x = pinch_complex()
        y = sn_complex(x)
        z = sn_complex(y)
        for c in y.cones():
            assert monoid_equal(y.monoid_of(c), z.monoid_of(c))

    def test_predicates(self):
        assert is_seminormal_complex(pinch_complex())
        assert not is_weakly_normal_complex(pinch_complex(), Characteristic(2))
        assert is_seminormal_complex(axes_complex())
        s = AffineMonoid.make(1, [(2,), (3,)])
        x = complex_from_monoid_subfan(s, face_fan_closure(1, [monoid_cone(s)]))
        assert not is_seminormal_complex(x)

    def test_predicate_matches_fixed_point(self):
        for x in (pinch_complex(), axes_complex(), n2_complex()):
            y = sn_complex(x)
            fixed = all(
                monoid_equal(y.monoid_of(c), x.monoid_of(c)) for c in x.cones()
            )
            assert fixed == is_seminormal_complex(x)


@st.composite
def monoid_subfans(draw):
    """A random monoid of rank 1 or 2 with its face fan, the boundary of its
    cone or one facet of its cone.  Generators are multiples k v of a few
    small v, so that gaps (non-seminormal monoids) occur."""
    n = draw(st.integers(1, 2))
    vectors = st.tuples(*[st.integers(-1, 3)] * n).filter(any)
    pool = draw(st.lists(vectors, min_size=1, max_size=3))
    multiples = st.tuples(st.integers(1, 4), st.sampled_from(pool))
    gens = draw(st.lists(multiples, min_size=2, max_size=4))
    s = AffineMonoid.make(n, [tuple(k * x for x in v) for k, v in gens])
    c = monoid_cone(s)
    boundary = [f for f in faces(c)[1:] if f.dim == c.dim - 1]
    tops = draw(st.sampled_from([boundary or [c], [c], boundary[:1] or [c]]))
    return s, face_fan_closure(n, tops)


def monoid_complexes():
    """The monoid of `monoid_subfans` restricted to its subfan."""
    return monoid_subfans().map(lambda sf: complex_from_monoid_subfan(*sf))


def same_monoids(x, table):
    return x.cones() == sorted(table, key=lambda c: c.sort_key()) and all(
        monoid_equal(x.monoid_of(c), table[c]) for c in table)


class TestNormalizationThroughFamily:
    """The complex-level normalizations and predicates, which read the lattice
    family, agree with normalizing and testing each cone monoid on its own."""

    def check(self, x):
        assert same_monoids(sn_complex(x), normalize_cone_by_cone(x))
        for p in (2, 3):
            char = Characteristic(p)
            assert same_monoids(wn_complex(x, char), normalize_cone_by_cone(x, char))
        for p in (0, 2, 3):
            char = Characteristic(p)
            assert is_weakly_normal_complex(x, char) == is_weakly_normal_facetwise(x, char)

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        self.check(fixture(name).complex)

    @PROPERTY
    @given(monoid_complexes())
    def test_random_complexes(self, x):
        self.check(x)

    @PROPERTY
    @given(monoid_complexes())
    def test_classify_inverts_realization(self, x):
        family = classify(x)
        y = complex_from_lattice_family(x.fan, family)
        assert classify(y) == family
        if is_seminormal_complex(x):
            assert same_monoids(y, dict(x.assignment))


def generator_tuples(table):
    return {c: s.generators for c, s in dict(table).items()}


class TestAssemblyFromFacets:
    """The constructors give each facet its monoid and each face the facet's
    generators inside it.  The references build every cone's monoid on its
    own: extracted from its own strata, or restricted from the monoid."""

    @PROPERTY
    @given(monoid_complexes())
    def test_normalizations_match_cone_by_cone(self, x):
        want = realize_cone_by_cone(x.fan, classify(x))
        assert generator_tuples(sn_complex(x).assignment) == generator_tuples(want)
        for p in (2, 3):
            char = Characteristic(p)
            want = realize_cone_by_cone(x.fan, wn_family(classify(x), p))
            assert generator_tuples(wn_complex(x, char).assignment) == generator_tuples(want)

    @PROPERTY
    @given(monoid_subfans())
    def test_subfan_matches_face_restriction(self, sf):
        s, fan = sf
        x = complex_from_monoid_subfan(s, fan)
        assert dict(x.assignment) == {c: face_restriction(s, c) for c in fan}

    @PROPERTY
    @given(monoid_complexes())
    def test_strata_realized_on_facets_only(self, x):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            real = torf.complexes.from_strata
            mp.setattr(torf.complexes, "from_strata", lambda sm: calls.append(sm.cone) or real(sm))
            complex_from_lattice_family(x.fan, classify(x))
        assert calls == list(x.fan.facets)


MODELS = Path(__file__).with_name("models")


def model_complex(name):
    return build_complex(parse_model((MODELS / f"{name}.json").read_text()))[0]


class TestVerdictsReadTheFamily:
    """The verdicts read the complex's own lattice family `classify(x)`: they
    equal the verdicts that stratify every facet again, and the families that
    no check runs on at run time pass `check_family`."""

    def check(self, x):
        family = classify(x)
        check_family(x.fan, family)
        assert is_seminormal_complex(x) == is_seminormal_complex_facetwise(x)
        for p in (0, 2, 3, 5):
            char = Characteristic(p)
            check_family(x.fan, wn_family(family, p))
            assert is_weakly_normal_complex(x, char) == is_weakly_normal_complex_by_lattice(x, char)

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        self.check(fixture(name).complex)

    @pytest.mark.parametrize("name", sorted(p.stem for p in MODELS.glob("*.json")))
    def test_models(self, name):
        self.check(model_complex(name))

    @pytest.mark.parametrize("holed", [False, True])
    def test_cube_3(self, holed):
        """The complete fan over the faces of [-1, 1]^3, whose six facets have
        four rays each.  Holed, the facet x1 = 1 carries its points of height 1
        but (1, 0, 0), twice which is (1, 1, 0) + (1, -1, 0): not seminormal."""
        doc = cube(3)
        if holed:
            gens = [[1, a, b] for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]
            doc["monoids"] = {"x1+": {"generators": gens}}
        x, _pairs = build_complex(parse_model(json.dumps(doc)))
        assert all(len(f.rays) == 4 for f in x.fan.facets)
        assert is_seminormal_complex(x) is not holed
        self.check(x)

    @PROPERTY
    @given(monoid_complexes())
    def test_random_complexes(self, x):
        self.check(x)


SQUARE = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))


@st.composite
def square_cone_monoids(draw):
    """A rank-3 monoid on the cone over a square, which has four extreme rays:
    a multiple of each (1, +-1, +-1) and up to three small vectors of the cone."""
    ks = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
    inside = st.tuples(st.integers(1, 2), st.integers(-2, 2), st.integers(-2, 2)).filter(
        lambda v: abs(v[1]) <= v[0] and abs(v[2]) <= v[0])
    extra = draw(st.lists(inside, max_size=3))
    return AffineMonoid.make(3, [tuple(k * x for x in v) for k, v in zip(ks, SQUARE)] + extra)


class TestNonSimplicialVerdicts:
    """On cones that `_simplices` must triangulate, the monoid verdicts equal
    the scan of every realized candidate in `is_weakly_normal_inline`."""

    @PROPERTY
    @given(square_cone_monoids())
    def test_square_cone(self, s):
        assert len(_simplices(monoid_cone(s))) == 2
        assert is_seminormal(s) == is_weakly_normal_inline(s, Characteristic(0))
        for p in (2, 3):
            char = Characteristic(p)
            assert is_weakly_normal(s, char) == is_weakly_normal_inline(s, char), p


class TestWnFamilyContract:
    """`wn_family(F, p)` is F exactly when p divides no `stratum_index` of F,
    the index of a stratum in its saturation."""

    PRIMES = (2, 3, 5, 7, 11, 13)

    def check(self, x):
        family = classify(x)
        indices = [stratum_index(lat) for lat in family.values()]
        for p in self.PRIMES:
            assert (wn_family(family, p) == family) == all(i % p for i in indices), p

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        self.check(fixture(name).complex)

    @PROPERTY
    @given(monoid_complexes())
    def test_random_complexes(self, x):
        self.check(x)


class TestOneVerdictPath:
    """A monoid's verdicts are those of its one-facet complex: they share the
    memo of `is_seminormal_complex`, and weak normality reads `stratum_index`
    without p-saturating.  Counted in a fresh interpreter, so that no earlier
    test has filled the memo, on the 7-umbrella <(7,0), (0,1), (1,1), ..., (6,1)>,
    which is seminormal and weakly normal at every p but 7."""

    UMBRELLA = AffineMonoid.make(2, [(7, 0)] + [(i, 1) for i in range(7)])
    PRIMES = (0, 2, 3, 5, 7)

    def test_seven_umbrella(self):
        script = ("import json, sys\n"
                  "from torf.complexes import is_seminormal, is_weakly_normal\n"
                  "from torf.monoids import AffineMonoid, Characteristic\n"
                  "calls = {'realizes': 0, '_p_saturation': 0}\n"
                  "for name in calls:  # in every torf module that holds it\n"
                  "    real = getattr(sys.modules['torf.monoids'], name)\n"
                  "    def counted(*a, name=name, real=real):\n"
                  "        calls[name] += 1\n"
                  "        return real(*a)\n"
                  "    for m in [m for k, m in sys.modules.items() if k.startswith('torf.')]:\n"
                  "        if getattr(m, name, None) is real:\n"
                  "            setattr(m, name, counted)\n"
                  f"s = AffineMonoid.make(2, {list(self.UMBRELLA.generators)!r})\n"
                  "verdicts = [is_seminormal(s)]\n"
                  f"verdicts += [is_weakly_normal(s, Characteristic(p)) for p in {self.PRIMES!r}]\n"
                  "print(json.dumps([verdicts, calls]))")
        verdicts, calls = fresh(script)
        assert verdicts == [True, True, True, True, True, False]
        assert verdicts == [is_weakly_normal_inline(self.UMBRELLA, Characteristic(p))
                            for p in (0,) + self.PRIMES]
        assert calls == {"realizes": 1, "_p_saturation": 0}


class TestSeminormalAsksTheIrreducibles:
    """`is_seminormal` searches nothing: it compares each irreducible of the
    monoid that S's family realizes, as the extraction keeps it, with S's
    generators up to units, and `member` is never called.  Counted in a fresh
    interpreter on the Hilbert basis of cone(e1, e2, (1, 1, 30)), whose 32
    elements are e1, e2 and the (1, 1, k), and on it less (1, 1, 1) or
    (1, 1, 29), which are not seminormal; and inside `is_seminormal_complex`
    on `models/p1-cubed.json`.  The scan of every realized candidate,
    `is_weakly_normal_inline`, asks 240, 86 and 17 times."""

    HILBERT = [(1, 0, 0), (0, 1, 0)] + [(1, 1, k) for k in range(1, 31)]
    CASES = {"saturated": None, "without (1,1,1)": (1, 1, 1), "without (1,1,29)": (1, 1, 29)}
    COUNTED = ("import json, sys\n"
               "from pathlib import Path\n"
               "from torf.complexes import is_seminormal, is_seminormal_complex\n"
               "from torf.model import build_complex, parse_model\n"
               "from torf.monoids import AffineMonoid\n"
               "calls, real = [0], sys.modules['torf.monoids'].member\n"
               "def counted(*a):\n"
               "    calls[0] += 1\n"
               "    return real(*a)\n"
               "for m in [m for k, m in sys.modules.items() if k.startswith('torf.')]:\n"
               "    if getattr(m, 'member', None) is real:\n"
               "        m.member = counted\n"
               "def count(verdict, arg):\n"
               "    calls[0] = 0\n"
               "    return [verdict(arg), calls[0]]\n")

    def test_member_calls(self):
        monoids = {name: [g for g in self.HILBERT if g != drop]
                   for name, drop in self.CASES.items()}
        out = fresh(self.COUNTED + f"print(json.dumps({{name: count(is_seminormal, "
                    f"AffineMonoid.make(3, gens)) for name, gens in {monoids!r}.items()}}))")
        assert out["saturated"] == [True, 0]
        for name in ("without (1,1,1)", "without (1,1,29)"):
            assert out[name] == [False, 0], name
        for name, gens in monoids.items():
            s = AffineMonoid.make(3, gens)
            assert out[name][0] == is_weakly_normal_inline(s, Characteristic(0)), name

    def test_member_calls_on_a_complex(self):
        path = str(MODELS / "p1-cubed.json")
        out = fresh(self.COUNTED + f"x = build_complex(parse_model(Path({path!r}).read_text()))[0]\n"
                    "print(json.dumps(count(is_seminormal_complex, x)))")
        assert out == [is_seminormal_complex_facetwise(model_complex("p1-cubed")), 0]


class TestFacetsDecideTheComplex:
    """complex_validate needs a monoid on the facets only: a face without one
    takes its first facet's restriction, which is the monoid that the full
    table gives it."""

    def check(self, x):
        n, table = x.ambient_rank, dict(x.assignment)
        facets_only = complex_validate(n, x.fan, {f: table[f] for f in x.fan.facets})
        assert facets_only == complex_validate(n, x.fan, table)
        assert facets_only.assignment == complex_validate_all_pairs(n, x.fan, table)

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        self.check(fixture(name).complex)

    @PROPERTY
    @given(monoid_complexes())
    def test_random_complexes(self, x):
        self.check(x)

    def test_missing_facet(self):
        left = cone_from_generators(2, [(-1, 0), (0, 1)])
        x = full_complex(face_fan_closure(2, [QUAD, left]))
        table = dict(x.assignment)
        del table[left]
        with pytest.raises(ConeNotInFan):
            complex_validate(2, x.fan, table)


def koszul_betti(x, box, pair=()):
    """Betti numbers as the sum of Koszul fiber cohomology over the support box."""
    total = [0] * (x.ambient_rank + 1)
    for m, c in support_box(x, box).items():
        if c not in pair:
            for p, h in enumerate(fiber_cohomology(fiber_complex(x, m))):
                total[p] += h
    return tuple(total)


class TestDeRhamReadsTheFamily:
    """The de Rham layer locates support degrees in the lattice family.  The
    references are the extracted seminormalization, the membership search
    and the Koszul ranks of every fiber in the box."""

    @PROPERTY
    @given(monoid_complexes(), st.integers(0, 2), st.integers(0, 3))
    def test_hdiff_general_matches_extracted_complex(self, x, p, box):
        want = {m: comb(c.dim, p) for m, c in support_box(sn_complex(x), box).items()}
        assert hdiff_general(x, p, box) == want

    @PROPERTY
    @given(monoid_complexes(), st.integers(0, 3), st.data())
    def test_betti_and_pairs_match_koszul_ranks(self, x, box, data):
        if not is_seminormal_complex(x):
            with pytest.raises(NotWeaklyNormal):
                betti(x, box_bound=box)
            x = sn_complex(x)
        sub = subfan(x.fan, [data.draw(st.sampled_from(x.cones()))])
        for pair in (None, sub):
            got = betti(x, pair_subfan=pair, box_bound=box).dims
            assert got == koszul_betti(x, box, pair or ())
            assert got == betti(x, pair_subfan=pair, theoretical=True).dims
        p = data.draw(st.integers(0, x.ambient_rank))
        want = {m: comb(c.dim, p) for m, c in support_box(x, box).items() if c not in sub}
        assert pair_dims(x, sub, p, box)[0] == want

    @PROPERTY
    @given(monoid_complexes(), st.data())
    def test_module_action_and_dd(self, x, data):
        x = sn_complex(x)
        degrees = sorted(support_box(x, 2))
        p = data.draw(st.integers(0, x.ambient_rank))
        terms = data.draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=4, unique=True))
        w = make_form(x, p, {m: (1,) * comb(fiber_space(x, m).dim, p) for m in terms})
        mp = data.draw(st.sampled_from(degrees))
        want = {}
        for m, coords in w.terms:
            if degrees_multiply(x, mp, m):
                m2 = tuple(a + b for a, b in zip(m, mp))
                want[m2] = _wedge_power(_inclusion_matrix(x, m, m2), p).mul_vec(coords)
        want = tuple(sorted((m, c) for m, c in want.items() if any(c)))
        assert module_action(x, mp, w).terms == want
        assert differential(x, differential(x, w)).terms == ()


class TestClassification:
    def test_classify_n2(self):
        fam = classify(n2_complex())
        assert fam[QUAD] == Sublattice.full(2)
        assert fam[XRAY].basis_vectors() == [(1, 0)]

    def test_pinch_from_family(self):
        fam = {
            QUAD: Sublattice.full(2),
            XRAY: Sublattice.from_generators(2, [(2, 0)]),
            YRAY: Sublattice.from_generators(2, [(0, 1)]),
            ZERO2: Sublattice.zero(2),
        }
        x = complex_from_lattice_family(face_fan_closure(2, [QUAD]), fam)
        p = pinch_complex()
        for c in x.cones():
            assert monoid_equal(x.monoid_of(c), p.monoid_of(c))

    def test_roundtrip(self):
        for x in (n2_complex(), pinch_complex(), axes_complex()):
            fam = classify(x)
            if not is_seminormal_complex(x):
                continue
            y = complex_from_lattice_family(x.fan, fam)
            assert classify(y) == fam
            for c in x.cones():
                assert monoid_equal(x.monoid_of(c), y.monoid_of(c))

    def test_bad_nesting_rejected(self):
        fam = {
            QUAD: Sublattice.from_generators(2, [(3, 0), (0, 1)]),
            XRAY: Sublattice.from_generators(2, [(2, 0)]),
            YRAY: Sublattice.from_generators(2, [(0, 1)]),
            ZERO2: Sublattice.zero(2),
        }
        with pytest.raises(BadLatticeFamily):
            complex_from_lattice_family(face_fan_closure(2, [QUAD]), fam)

    def test_missing_cone_rejected(self):
        fam = {
            QUAD: Sublattice.from_generators(2, [(1, 0), (0, 1)]),
            XRAY: Sublattice.from_generators(2, [(1, 0)]),
            ZERO2: Sublattice.zero(2),
        }
        with pytest.raises(BadLatticeFamily):
            complex_from_lattice_family(face_fan_closure(2, [QUAD]), fam)

    def test_off_cover_pair_reported_on_its_facet(self):
        # only the top stratum is coarse, and only along e1: the ray e1 is not
        # nested in it, but the first facet of the top cone is reported
        top = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        fam = {c: span_lattice(c) for c in faces(top)}
        fam[top] = Sublattice.from_generators(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(BadLatticeFamily) as exc:
            complex_from_lattice_family(face_fan_closure(3, [top]), fam)
        assert (str(exc.value.face), exc.value.cone) == ("cone[(0, 0, 1); (1, 0, 0)]", top)

    def test_infinite_index_rejected(self):
        fam = {
            QUAD: Sublattice.from_generators(2, [(1, 0)]),
            XRAY: Sublattice.from_generators(2, [(1, 0)]),
            YRAY: Sublattice.from_generators(2, [(0, 1)]),
            ZERO2: Sublattice.zero(2),
        }
        with pytest.raises(BadLatticeFamily):
            complex_from_lattice_family(face_fan_closure(2, [QUAD]), fam)


class TestGerms:
    def test_germ_at_ray(self):
        x = n2_complex()
        g = germ_at(x, XRAY)
        assert sorted((c.dim, c.lin_dim) for c in g.fan) == [(1, 1), (2, 1)]
        half = [c for c in g.cones() if c.dim == 2][0]
        s = g.monoid_of(half)
        assert member(s, (-3, 0)) and member(s, (2, 1))
        assert not member(s, (0, -1))

    def test_germ_requires_membership(self):
        diag = cone_from_generators(2, [(1, 1)])
        with pytest.raises(ConeNotInFan):
            germ_at(n2_complex(), diag)

    def test_germ_at_minimal_is_identity(self):
        x = n2_complex()
        g = germ_at(x, ZERO2)
        assert g == x

    def test_germ_minimal_cone_is_lineality(self):
        x = n2_complex()
        g = germ_at(x, XRAY)
        from torf.cones import fan_minimal_cone

        mini = fan_minimal_cone(g.fan)
        assert mini.rays == () and mini.lin_dim == 1


@st.composite
def pointed_fans(draw):
    """The face closure of 1 to 3 pointed cones in rank n <= 3, when it is a fan."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    cone = st.lists(vec.filter(any), min_size=n, max_size=3).map(
        lambda gens: cone_from_generators(n, gens))
    tops = draw(st.lists(cone.filter(lambda c: c.lin_dim == 0), min_size=1, max_size=3))
    try:
        return face_fan_closure(n, tops)
    except BadIntersection:
        return face_fan_closure(n, tops[:1])


class TestSaturatedFromFacets:
    """Each face takes its facet's Hilbert basis elements inside it, which is
    the face's own Hilbert basis."""

    @settings(PROPERTY, max_examples=60)
    @given(pointed_fans())
    def test_matches_per_cone_saturation(self, fan):
        assert dict(full_complex(fan).assignment) == saturated_by_cone(fan)

    @pytest.mark.parametrize("tops", [
        [[(1, 0), (-1, 0), (0, 1)], [(1, 0), (-1, 0), (1, -2)]],  # two half-planes
        [[(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 1, -1)], [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 2, 3)]],
        [[(1, 0, 0), (1, 2, 0), (1, 1, 3)], [(1, 0, 0), (1, 2, 0), (1, 1, -2)]],
    ])
    def test_fans_with_lineality_and_deep_hilbert_bases(self, tops):
        n = len(tops[0][0])
        fan = face_fan_closure(n, [cone_from_generators(n, gens) for gens in tops])
        assert dict(full_complex(fan).assignment) == saturated_by_cone(fan)


class TestNoRevalidation:
    """A Fan is validated where it is built; complexes over it do not recheck it."""

    def test_no_fan_validate_downstream(self, monkeypatch):
        x = n2_complex()
        sub = fan_validate(2, [XRAY, YRAY, ZERO2])
        calls = []

        def counting(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.append(name) or real(*a))

        counting(torf.cones, "fan_validate")
        counting(torf.complexes, "fan_validate")
        assert complex_validate(2, x.fan, dict(x.assignment)) == x
        assert complex_from_lattice_family(x.fan, classify(x)).fan == x.fan
        counting(torf.complexes, "complex_validate")
        y = subcomplex(x, sub)
        assert calls == []
        assert y.cones() == list(sub)
        assert all(y.monoid_of(c) == x.monoid_of(c) for c in sub)
