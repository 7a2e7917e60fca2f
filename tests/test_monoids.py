"""Affine monoids: membership, saturation, normalizations, classification."""

import itertools
import random
import time
from unittest.mock import patch

import pytest
import torf.complexes
import torf.monoids
from hypothesis import assume, example, given, settings, strategies as st

from torf.errors import BadLatticeFamily, NotFiniteExtension, WorkTooLarge
from torf.complexes import (
    complex_from_monoid_subfan,
    is_seminormal,
    is_weakly_normal,
    relative_sn,
    relative_wn,
    sn_complex,
    stratify,
    weak_normalization,
    wn_complex,
)
from torf.cones import cone_from_generators, face_fan_closure, faces
from torf.linalg import (
    Sublattice,
    lattice_contains,
    member_lattice,
    saturate,
    vec_add,
    vec_dot,
    vec_neg,
)
from torf.monoids import (
    _MR_LIMIT,
    _cell_points,
    _irreducibles,
    _lattice_intersection,
    _simplices,
    _strata_candidates,
    AffineMonoid,
    Characteristic,
    StratifiedMonoid,
    box_points,
    _is_prime,
    check_family,
    cone_lattice_generators,
    extract_generators,
    face_restriction,
    from_strata,
    generates,
    member,
    monoid_cone,
    monoid_equal,
    saturation,
)

from reference import (
    _parallelepiped_points,
    coset_reps,
    facet_values,
    family_ok,
    generates_by_dd,
    hilbert_basis_brute,
    hilbert_basis_by_simplex,
    is_weakly_normal_inline,
    lattice_index,
    minors_gcd,
    points_by_simplex,
    sn_member_oracle,
    span_lattice,
    strata_candidates_blanket,
    stratify_checked,
    weak_normalization_checked,
)
import scale_models
from test_complexes import monoid_complexes
from test_cones import LINEALITY_EXAMPLE

PINCH = AffineMonoid.make(2, [(2, 0), (0, 1), (1, 1)])
NSG23 = AffineMonoid.make(1, [(2,), (3,)])
NN = AffineMonoid.make(2, [(1, 0), (0, 1)])
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def small_cone_generators():
    """Up to three generators in Z^1..Z^3 and at most one lineality direction (with its negative)."""
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=3),
        st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=1),
    )).map(lambda gl: gl[0] + gl[1] + [tuple(-x for x in v) for v in gl[1]])


class TestMembership:
    def test_pinch_examples(self):
        assert not member(PINCH, (1, 0))
        assert member(PINCH, (2, 0))
        assert member(PINCH, (1, 1))
        assert member(PINCH, (3, 1))
        assert member(PINCH, (0, 0))
        assert not member(PINCH, (-1, 2))

    def test_numeric_semigroup(self):
        gaps = [m for m in range(0, 20) if not member(NSG23, (m,))]
        assert gaps == [1]

    def test_against_exhaustive_combinations(self):
        rng = random.Random(30)
        for _ in range(10):
            gens = [
                (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)
            ]
            gens = [g for g in gens if g != (0, 0)] or [(1, 0)]
            s = AffineMonoid.make(2, gens)
            reachable = {(0, 0)}
            frontier = [(0, 0)]
            while frontier:
                v = frontier.pop()
                for g in gens:
                    w = (v[0] + g[0], v[1] + g[1])
                    if max(w) <= 8 and w not in reachable:
                        reachable.add(w)
                        frontier.append(w)
            for x in range(5):
                for y in range(5):
                    assert member(s, (x, y)) == ((x, y) in reachable)

    def test_with_units(self):
        s = AffineMonoid.make(2, [(1, 0), (-1, 0), (0, 2)])
        assert member(s, (-5, 2))
        assert not member(s, (0, 1))

    def test_monoid_equal(self):
        assert monoid_equal(
            AffineMonoid.make(1, [(2,), (3,)]),
            AffineMonoid.make(1, [(2,), (3,), (5,)]),
        )
        assert not monoid_equal(NSG23, AffineMonoid.make(1, [(1,)]))


REACH = 6  # the membership oracle's bound on the first coordinate


def reachable(pointed):
    """The sums of `pointed` (first coordinates >= 1) with first coordinate
    at most REACH: all of N<pointed> there, since every partial sum of such a
    point's representation has a smaller first coordinate."""
    seen = {tuple(0 for _ in pointed[0])}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for g in pointed:
            w = tuple(a + b for a, b in zip(v, g))
            if w[0] <= REACH and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def oracle_member(reach, units, m):
    """m in N<pointed> + sum of a_j Z e_j over units {j: a_j}, for m[0] <= REACH
    (the units have first coordinate 0)."""
    return any(p[0] == m[0] and all(
        (x - y) % units[j] == 0 if j in units else x == y
        for j, (x, y) in enumerate(zip(m, p)) if j > 0) for p in reach)


def membership_case(pointed, units, queries):
    """The monoid of `pointed` and the units +-a_j e_j, with the queries, a
    sample of its points of first coordinate at most REACH, and each of
    those plus e_1 or e_n (often a gap or off gp(S))."""
    n = len(pointed[0])
    unit_gens = [tuple(s * a * (i == j) for i in range(n)) for j, a in units.items() for s in (1, -1)]
    reach = reachable(pointed)
    sample = sorted(reach)[::5]
    shifted = [p[:-1] + (p[-1] + 1,) for p in sample]
    shifted += [(p[0] + 1,) + p[1:] for p in sample if p[0] < REACH]
    return AffineMonoid.make(n, pointed + unit_gens), reach, units, queries + sample + shifted


@st.composite
def membership_cases(draw, with_units):
    """Monoids of rank 1 to 3 whose pointed generators have first coordinate
    1..3 and other entries -3..3, with units +-a_j e_j (j >= 1) if asked, and
    shuffled queries in and out of the cone and of gp(S)."""
    n = draw(st.integers(2 if with_units else 1, 3))
    pointed = draw(st.lists(st.tuples(st.integers(1, 3), *[st.integers(-3, 3)] * (n - 1)),
                            min_size=1, max_size=4))
    units = draw(st.dictionaries(st.integers(1, n - 1), st.integers(1, 3),
                                 min_size=int(with_units))) if with_units else {}
    queries = draw(st.lists(st.tuples(st.integers(-1, REACH), *[st.integers(-9, 9)] * (n - 1)),
                            max_size=30))
    s, reach, units, queries = membership_case(pointed, units, queries)
    draw(st.randoms(use_true_random=False)).shuffle(queries)
    return s, reach, units, queries


class TestMembershipProperties:
    """The depth-first search against reachability with a bounded first
    coordinate, with queries sharing the memo of one monoid."""

    @PROPERTY
    @given(membership_cases(with_units=False))
    @example(membership_case([(2, 0), (2, 2)], {}, [(1, 1), (2, -1), (4, 2), (3, 1), (0, 0)]))
    @example(membership_case([(1,)], {}, [(-1,), (3,)]))
    def test_pointed_against_reachability(self, case):
        s, reach, units, queries = case
        for m in queries:
            assert member(s, m) == oracle_member(reach, units, m), m

    @PROPERTY
    @given(membership_cases(with_units=True))
    @example(membership_case([(2, 1), (1, 0)], {1: 2}, [(1, 1), (2, 0), (3, 2), (-1, 0)]))
    def test_with_units(self, case):
        """Against the oracle, and unchanged by adding any of several units."""
        s, reach, units, queries = case
        n = s.ambient_rank
        steps = [tuple(k * a * (i == j) for i in range(n)) for j, a in units.items()
                 for k in (-2, -1, 1, 3)]
        steps.append(tuple(units.get(i, 0) for i in range(n)))
        for m in queries:
            expected = oracle_member(reach, units, m)
            assert member(s, m) == expected, m
            for u in steps:
                assert member(s, tuple(x + y for x, y in zip(m, u))) == expected, (m, u)


class TestSaturation:
    def test_pinch(self):
        assert saturation(PINCH).generators == ((0, 1), (1, 0))

    def test_numeric(self):
        assert saturation(NSG23).generators == ((1,),)

    def test_simplicial_with_interior_point(self):
        s = AffineMonoid.make(2, [(1, 0), (1, 2)])
        sat = saturation(s)
        assert (1, 1) in sat.generators

    def test_saturation_contains_and_multiples(self):
        rng = random.Random(31)
        for _ in range(10):
            gens = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
            gens = [g for g in gens if g != (0, 0)] or [(2, 1)]
            s = AffineMonoid.make(2, gens)
            sat = saturation(s)
            for g in s.generators:
                assert member(sat, g)
            cone = monoid_cone(s)
            for v in box_points(2, 4):
                if member(sat, v):
                    assert cone.contains(v)

    def test_lineality(self):
        s = AffineMonoid.make(2, [(2, 0), (-2, 0), (0, 3)])
        sat = saturation(s)
        assert member(sat, (1, 0)) and member(sat, (-1, 0)) and member(sat, (0, 1))

    @pytest.mark.parametrize("k,size", [(5, 31), (6, 96)])
    def test_moment_cone_hilbert_basis_size(self, k, size):
        c = cone_from_generators(4, [(1, t, t * t, t ** 3) for t in range(k)])
        assert len(cone_lattice_generators(c)) == size

    @PROPERTY
    @given(small_cone_generators())
    def test_hilbert_basis_against_brute_force(self, gens):
        c = cone_from_generators(len(gens[0]), gens)
        out = cone_lattice_generators(c)
        assert all(c.contains(h) for h in out)
        values = [facet_values(c, h) for h in out if any(facet_values(c, h))]
        brute = hilbert_basis_brute(c, gens)
        assert len(values) == len(set(values)) == len(brute)
        assert set(values) == brute
        units = [h for h in out if not any(facet_values(c, h))]
        assert sorted(units) == sorted(tuple(-x for x in u) for u in units)
        assert len(units) == 2 * c.lin_dim
        assert minors_gcd([u for u in units if u > tuple(-x for x in u)]) == 1


class TestWorkBudget:
    """A Hilbert basis counts its parallelepiped points before listing one."""

    @PROPERTY
    @given(small_cone_generators())
    @example([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])  # simplices of 2 and 2 points
    @example([(2, 0, 1), (0, 3, 1), (-1, 0, 1), (0, -1, 1)])  # simplices of 3 and 9 points
    def test_refusal_carries_the_point_count(self, gens):
        n = len(gens[0])
        c = cone_from_generators(n, gens)
        points = sum(len(_parallelepiped_points(saturate(Sublattice.from_generators(n, s)), s))
                     for s in map(list, _simplices(c)))
        with patch.object(torf.monoids, "MAX_PARALLELEPIPED_POINTS", points - 1):
            with pytest.raises(WorkTooLarge, match=f" {points} parallelepiped points") as e:
                cone_lattice_generators.__wrapped__(c)  # past the memo
        assert e.value.estimate == points
        with patch.object(torf.monoids, "MAX_PARALLELEPIPED_POINTS", points):
            assert cone_lattice_generators.__wrapped__(c) == cone_lattice_generators(c)

    def test_refused_before_listing(self):
        c = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 1, 10**9)])
        start = time.process_time()
        with pytest.raises(WorkTooLarge) as e:
            saturation(AffineMonoid.make(3, c.rays))
        assert e.value.estimate == 10**9
        assert time.process_time() - start < 1


@st.composite
def cones_with_lineality(draw):
    """A cone in Z^1..Z^4 on up to six generators in a half-space (so that
    non-simplicial cones are common from rank 3), with entries -3..3, and up
    to one lineality direction."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * (n - 1), st.integers(0, 3)),
                         min_size=n, max_size=6))
    line = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=1))
    return cone_from_generators(n, gens + line + [vec_neg(v) for v in line])


class TestOneEnumeration:
    """The Hilbert basis lists the points of cells of rays and lineality in
    Z^n intersect span c: the points that one saturated span per simplex,
    with no lineality, lists."""

    @settings(PROPERTY, max_examples=100)
    @given(cones_with_lineality())
    @example(LINEALITY_EXAMPLE)
    @example(cone_from_generators(3, [(2, 0, 1), (0, 3, 1), (-1, 0, 1), (0, -1, 1)]))
    @example(cone_from_generators(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 2, 0), (0, 1, 2, 0),
                                      (0, 0, 0, 1), (0, 0, 0, -1)]))  # non-simplicial, a line
    def test_matches_per_simplex_spans(self, c):
        units = list(c.lin_basis)
        cells = _cell_points(c, span_lattice(c), dict(zip(c.rays, c.rays)), c.contains, units,
                             "c")
        assert [sorted(xs) for _rs, xs in cells] == list(map(sorted, points_by_simplex(c)))
        assert cone_lattice_generators(c) == hilbert_basis_by_simplex(c)


class TestFaceHilbertBases:
    """A face's saturated monoid is its cone's restricted to it: the Hilbert
    basis elements of c lying in a face are the face's own Hilbert basis, as
    the fan cones that no explicit monoid covers take it from a facet."""

    @settings(PROPERTY, max_examples=100)
    @given(cones_with_lineality())
    @example(LINEALITY_EXAMPLE)
    @example(cone_from_generators(3, [(2, 0, 1), (0, 3, 1), (-1, 0, 1), (0, -1, 1)]))
    @example(cone_from_generators(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 2, 0), (0, 1, 2, 0),
                                      (0, 0, 0, 1), (0, 0, 0, -1)]))  # non-simplicial, a line
    def test_restricted_from_the_cone(self, c):
        hilbert = cone_lattice_generators(c)
        for f in faces(c):
            assert cone_lattice_generators(f) == tuple(g for g in hilbert if f.contains(g))


class TestEveryEnumerationIsSized:
    """With no budget, every enumeration of cell points or relative
    candidates is refused before it lists one."""

    @pytest.mark.parametrize("enumeration", [
        lambda x: cone_lattice_generators.__wrapped__(monoid_cone(PINCH)),
        lambda x: from_strata(stratify(PINCH)),
        lambda x: is_weakly_normal(PINCH, Characteristic(2)),
        lambda x: sn_complex(x),
        lambda x: wn_complex(x, Characteristic(3)),
        lambda x: relative_sn(AffineMonoid.make(1, [(6,)]), AffineMonoid.make(1, [(1,)])),
    ], ids=["hilbert", "from_strata", "is_weakly_normal", "sn_complex", "wn_complex",
            "relative_sn"])
    def test_refused_before_listing(self, monkeypatch, enumeration):
        x = complex_from_monoid_subfan(PINCH, face_fan_closure(2, [monoid_cone(PINCH)]))
        torf.complexes.is_seminormal_complex.cache_clear()  # a verdict met before enumerates again
        for name in ("product", "_subset_sums", "vec_scale"):  # what lists points
            monkeypatch.setattr(torf.monoids, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        monkeypatch.setattr(torf.monoids, "MAX_PARALLELEPIPED_POINTS", 0)
        monkeypatch.setattr(torf.monoids, "MAX_RELATIVE_CANDIDATES", 0)
        with pytest.raises(WorkTooLarge) as e:
            enumeration(x)
        assert e.value.estimate > 0


class TestStratify:
    def test_pinch_strata(self):
        st = stratify(PINCH)
        xray = cone_from_generators(2, [(1, 0)])
        lat = st.lattice_of(xray)
        assert lat.basis_vectors() == [(2, 0)]
        assert lattice_index(lat, saturate(lat)) == 2

    def test_member_via_strata(self):
        st = stratify(PINCH)
        assert st.member((2, 0))
        assert not st.member((1, 0))
        assert st.member((1, 1))

    def test_strata_in_face_order(self):
        st = stratify(PINCH)
        assert [f for f, _lat in st.strata] == list(faces(monoid_cone(PINCH)))

    def test_first_of_two_unnested_pairs(self):
        # both ray strata are coarser than the top one; the first face in
        # canonical order is reported
        quad = cone_from_generators(2, [(1, 0), (0, 1)])
        zero, yray, xray, _quad = faces(quad)
        lattices = {zero: Sublattice.zero(2), xray: Sublattice.from_generators(2, [(1, 0)]),
                    yray: Sublattice.from_generators(2, [(0, 1)]),
                    quad: Sublattice.from_generators(2, [(2, 0), (0, 2)])}
        with pytest.raises(BadLatticeFamily) as exc:
            StratifiedMonoid.make(quad, lattices)
        assert (exc.value.face, exc.value.cone) == (yray, quad)

    def test_off_cover_pair_reported_on_its_facet(self):
        # only the top stratum is coarse, and only along e1: the ray e1 is not
        # nested in it, but the first facet of the top cone is reported
        top = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        lattices = {c: span_lattice(c) for c in faces(top)}
        lattices[top] = Sublattice.from_generators(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(BadLatticeFamily) as exc:
            StratifiedMonoid.make(top, lattices)
        assert (str(exc.value.face), exc.value.cone) == ("cone[(0, 0, 1); (1, 0, 0)]", top)

    def test_bad_stratum_reported_on_its_own_face(self):
        quad = cone_from_generators(2, [(1, 0), (0, 1)])
        lattices = {c: span_lattice(c) for c in faces(quad)}
        xray = faces(quad)[2]
        for bad in (Sublattice.zero(2), Sublattice.from_generators(2, [(1, 1)])):
            lattices[xray] = bad
            with pytest.raises(BadLatticeFamily) as exc:
                StratifiedMonoid.make(quad, lattices)
            assert (exc.value.face, exc.value.cone) == (xray, xray)

    def test_roundtrip_from_strata(self):
        for s in (PINCH, NSG23, NN):
            st = stratify(s)
            back = from_strata(st)
            # the extracted monoid realizes the stratified set
            n = s.ambient_rank
            for v in box_points(n, 6):
                assert member(back, v) == st.member(v)


@st.composite
def lattice_families(draw):
    """Face-closed cones, those of an orthant of rank at most 3 or the fan of
    a `monoid_complexes` complex, in canonical order, each with a random
    diagonal multiple of its saturated span lattice as its stratum.  A
    stratum is sometimes left out, of too small a rank or off its span."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        cones = list(faces(cone_from_generators(n, [tuple(int(i == j) for j in range(n))
                                                     for i in range(n)])))
    else:
        fan = draw(monoid_complexes()).fan
        n, cones = fan.ambient_rank, list(fan)
    family = {}
    for c in cones:
        basis = span_lattice(c).basis_vectors()
        vectors = [tuple(draw(st.integers(1, 3)) * x for x in b) for b in basis]
        flaw = draw(st.sampled_from([None] * 8 + ["missing", "rank", "span"]))
        off = [e for e in Sublattice.full(n).basis_vectors() if any(vec_dot(q, e) for q in c.eqs)]
        if flaw == "missing":
            continue
        if flaw == "rank" and vectors:
            vectors.pop()
        if flaw == "span" and off:
            vectors = [vec_add(vectors[0], off[0])] + vectors[1:] if vectors else off[:1]
        family[c] = Sublattice.from_generators(n, vectors)
    return cones, family


class TestCheckFamily:
    """check_family, on cover relations, against every ordered pair of faces."""

    @settings(PROPERTY, max_examples=200)
    @given(lattice_families())
    def test_matches_all_pairs_rule(self, cones_family):
        cones, family = cones_family
        try:
            check_family(cones, family)
        except BadLatticeFamily as e:
            assert not family_ok(cones, family)
            f, c = e.face, e.cone
            if f == c:
                lat = family.get(c)
                assert (lat is None or lat.rank != c.dim
                        or not lattice_contains(span_lattice(c), lat))
            else:
                assert f in faces(c) and f.dim == c.dim - 1
                assert not lattice_contains(family[c], family[f])
        else:
            assert family_ok(cones, family)


class TestNormality:
    def test_pinch_seminormal_not_wn2(self):
        assert is_seminormal(PINCH)
        assert not is_weakly_normal(PINCH, Characteristic(2))
        for p in (0, 3, 5):
            assert is_weakly_normal(PINCH, Characteristic(p))

    def test_numeric_not_seminormal(self):
        assert not is_seminormal(NSG23)
        sn = from_strata(stratify(NSG23))
        assert sn.generators == ((1,),)

    def test_saturated_monoid_is_normal(self):
        assert is_seminormal(NN)
        assert is_weakly_normal(NN, Characteristic(2))

    def test_weak_normalization_strata(self):
        wn = weak_normalization(PINCH, Characteristic(2))
        xray = cone_from_generators(2, [(1, 0)])
        assert wn.lattice_of(xray).basis_vectors() == [(1, 0)]
        wn3 = weak_normalization(PINCH, Characteristic(3))
        assert wn3.lattice_of(xray).basis_vectors() == [(2, 0)]

    def test_char_zero_is_sn(self):
        wn = weak_normalization(NSG23, Characteristic(0))
        ray = monoid_cone(NSG23)
        assert wn.lattice_of(ray) == stratify(NSG23).lattice_of(ray)

    def test_characteristic_validation(self):
        with pytest.raises(ValueError):
            Characteristic(4)
        Characteristic(0)
        Characteristic(7)

    def test_primality_agrees_with_sieve_below_1e5(self):
        n = 10**5
        sieve = [False, False] + [True] * (n - 2)
        for d in range(2, 317):
            if sieve[d]:
                sieve[d * d::d] = [False] * len(range(d * d, n, d))
        assert [_is_prime(p) for p in range(n)] == sieve

    @pytest.mark.parametrize("p", [10**18 + 1, 561, 41041])  # (10^6+1)(10^12-10^6+1), Carmichael
    def test_composite_characteristic_rejected(self, p):
        with pytest.raises(ValueError, match="must be 0 or prime"):
            Characteristic(p)

    def test_large_prime_accepted_quickly(self):
        start = time.process_time()
        assert Characteristic(10**18 + 3).p == 10**18 + 3
        assert time.process_time() - start < 1

    def test_characteristic_beyond_exact_range_refused(self):
        # the bound is the least composite that all 13 bases pass
        assert _MR_LIMIT == 1287836182261 * 2575672364521 and _is_prime(_MR_LIMIT)
        with pytest.raises(ValueError, match="too large"):
            Characteristic(_MR_LIMIT)


class TestOracle:
    def test_agreement_on_line(self):
        st = stratify(NSG23)
        for m in range(-20, 21):
            assert sn_member_oracle(NSG23, (m,)) == st.member((m,))

    def test_agreement_pinch(self):
        st = stratify(PINCH)
        for v in box_points(2, 6):
            assert sn_member_oracle(PINCH, v) == st.member(v)


class TestRelative:
    def test_power_extension(self):
        s6 = AffineMonoid.make(1, [(6,)])
        n1 = AffineMonoid.make(1, [(1,)])
        assert relative_wn(s6, n1, Characteristic(2)).generators == ((3,),)
        assert relative_wn(s6, n1, Characteristic(3)).generators == ((2,),)
        assert relative_wn(s6, n1, Characteristic(5)).generators == ((6,),)
        assert relative_sn(s6, n1).generators == ((6,),)

    def test_relative_sn_inside_smaller_extension(self):
        s6 = AffineMonoid.make(1, [(6,)])
        s2 = AffineMonoid.make(1, [(2,)])
        w = relative_wn(s6, s2, Characteristic(3))
        assert w.generators == ((2,),)

    def test_not_finite_extension(self):
        s = AffineMonoid.make(1, [(2,)])
        sp = AffineMonoid.make(1, [(1,), (-1,)])
        with pytest.raises(NotFiniteExtension):
            relative_sn(s, sp)


class TestLatticeHelpers:
    def test_coset_reps_count(self):
        sup = Sublattice.full(2)
        sub = Sublattice.from_generators(2, [(2, 1), (0, 3)])
        reps = coset_reps(sup, sub)
        assert len(reps) == 6
        seen = set()
        for r in reps:
            canon = min(
                tuple(r[i] - v[i] for i in range(2))
                for v in [(2 * a, a + 3 * b) for a in range(-4, 5) for b in range(-4, 5)]
            )
            seen.add(canon)
        assert len(seen) == 6

    def test_reps_distinct_cosets(self):
        sup = Sublattice.full(2)
        sub = Sublattice.from_generators(2, [(2, 0), (0, 2)])
        reps = coset_reps(sup, sub)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                diff = tuple(x - y for x, y in zip(a, b))
                assert not member_lattice(sub, diff)


@st.composite
def sublattice_pairs(draw):
    n = draw(st.integers(2, 3))
    vecs = st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=n)
    return tuple(Sublattice.from_generators(n, draw(vecs)) for _ in range(2))


class TestLatticeIntersection:
    @PROPERTY
    @given(sublattice_pairs())
    def test_box_points_in_both(self, ab):
        a, b = ab
        n = a.ambient_rank
        meet = _lattice_intersection(a, b)
        assert lattice_contains(a, meet) and lattice_contains(b, meet)
        joint = Sublattice.from_generators(n, a.basis_vectors() + b.basis_vectors())
        assert meet.rank == a.rank + b.rank - joint.rank
        for v in itertools.product(range(-6, 7), repeat=n):
            assert member_lattice(meet, v) == (member_lattice(a, v) and member_lattice(b, v))

    def test_examples(self):
        zero = Sublattice.zero(3)
        b = Sublattice.from_generators(3, [(1, 2, 0), (0, 0, 3)])
        for x, y in ((zero, b), (b, zero), (zero, zero)):
            assert _lattice_intersection(x, y) == zero
        assert _lattice_intersection(Sublattice.from_generators(2, [(2, 0)]),
                                     Sublattice.from_generators(2, [(3, 0), (0, 1)])) \
            == Sublattice.from_generators(2, [(6, 0)])


@st.composite
def generation_cases(draw):
    """A set G in Z^n, n <= 3, and a cone that cone(G) may or may not be:
    cone(G), the span of G (a lineality that G may span without generating
    it), cone(G) with the first generator's line, with one more vector, or
    without the last generator."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    gens = draw(st.lists(vec, max_size=5))
    cone_gens = draw(st.sampled_from([
        gens, gens + [vec_neg(g) for g in gens], gens + [vec_neg(g) for g in gens[:1]],
        gens + [draw(vec)], gens[:-1]]))
    return AffineMonoid.make(n, gens), cone_from_generators(n, cone_gens)


def gen_case(n, gens, cone_gens):
    return AffineMonoid.make(n, gens), cone_from_generators(n, cone_gens)


class TestGenerationProperties:
    """Generation read off the assigned cone is the double description's answer."""

    @settings(PROPERTY, max_examples=150)
    @given(generation_cases())
    @example(gen_case(2, [(1, 0), (0, 1)], [(1, 0), (0, 1), (-1, 0), (0, -1)]))  # spans R^2 only
    @example(gen_case(1, [(1,)], [(1,), (-1,)]))
    @example(gen_case(1, [(2,), (-3,)], [(1,), (-1,)]))
    @example(gen_case(2, [(1, 0), (1, 1)], [(1, 0), (0, 1)]))  # misses the ray (0, 1)
    @example(gen_case(2, [(1, 0), (1, 1)], [(1, 0), (-1, 0), (0, 1)]))
    @example(gen_case(2, [(2, 0), (-2, 0), (1, 1)], [(1, 0), (-1, 0), (0, 1)]))
    def test_matches_double_description(self, case):
        s, c = case
        assert generates(s, c) == generates_by_dd(s, c)
        assert not generates(s, c) or monoid_cone(s) == c

    def test_recorded_verdict_is_reused(self, monkeypatch):
        # a lineality needs a double description of the units the first time only
        s, c = gen_case(2, [(1, 0), (-1, 0), (1, 1)], [(1, 0), (-1, 0), (0, 1)])
        assert generates(s, c)
        calls = []
        real = torf.monoids.cone_from_generators
        monkeypatch.setattr(torf.monoids, "cone_from_generators",
                            lambda *a: calls.append(a) or real(*a))
        assert generates(s, c) and not generates(s, cone_from_generators(2, [(1, 0), (0, 1)]))
        assert calls == [] and monoid_cone(s) == c


class TestFaceRestriction:
    def test_pinch_restriction(self):
        xray = cone_from_generators(2, [(1, 0)])
        r = face_restriction(PINCH, xray)
        assert r.generators == ((2, 0),)

    def test_restriction_to_all_faces(self):
        for f in faces(monoid_cone(PINCH)):
            r = face_restriction(PINCH, f)
            for g in r.generators:
                assert f.contains(g)


class TestExactExtraction:
    """Generator extraction has no degree or box bound: generators far from
    the origin are found, and the result realizes the stratified set."""

    WIDE = AffineMonoid.make(2, [(20, 0), (0, 1), (30, 1)])

    def test_wide_generator_not_seminormal(self):
        assert not is_seminormal(self.WIDE)
        assert from_strata(stratify(self.WIDE)).generators == ((0, 1), (10, 1), (20, 0))

    def test_common_factor_not_seminormal(self):
        s = AffineMonoid.make(1, [(48,), (36,)])
        assert not is_seminormal(s)
        assert from_strata(stratify(s)).generators == ((12,),)

    @pytest.mark.parametrize("d,p,expected", [(36, 2, 9), (43, 3, 43)])
    def test_relative_wn_removes_p_part(self, d, p, expected):
        w = relative_wn(AffineMonoid.make(1, [(d,)]), AffineMonoid.make(1, [(1,)]), Characteristic(p))
        assert w.generators == ((expected,),)

    @PROPERTY
    @given(st.integers(1, 80), st.sampled_from([2, 3, 5]))
    def test_relative_wn_closed_form(self, d, p):
        q = d
        while q % p == 0:
            q //= p
        w = relative_wn(AffineMonoid.make(1, [(d,)]), AffineMonoid.make(1, [(1,)]), Characteristic(p))
        assert w.generators == ((q,),)


def small_monoids():
    """Monoids of rank 1 or 2 with up to four generators, coordinates up to
    24 in size so that generators outside small boxes occur; pointed and
    non-pointed cones both occur."""
    return st.integers(1, 2).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-24, 24)] * n), min_size=1, max_size=4,
    ).map(lambda gens: AffineMonoid.make(n, gens)))


class TestExtractionProperties:
    @PROPERTY
    @given(small_monoids())
    def test_contains_monoid(self, s):
        sn = from_strata(stratify(s))
        assert all(member(sn, g) for g in s.generators)

    @PROPERTY
    @given(small_monoids())
    def test_realizes_strata(self, s):
        strat = stratify(s)
        back = from_strata(strat)
        for v in box_points(s.ambient_rank, 4):
            assert member(back, v) == strat.member(v)

    @PROPERTY
    @given(small_monoids())
    def test_sn_idempotent(self, s):
        sn = from_strata(stratify(s))
        assert stratify(sn) == stratify(s)
        assert is_seminormal(sn)
        assert monoid_equal(from_strata(stratify(sn)), sn)


def rank3_monoids():
    """Monoids of rank 1 to 3 with two to four generators of entries -2..5."""
    return st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-2, 5)] * n), min_size=2, max_size=4,
    ).map(lambda gens: AffineMonoid.make(n, gens)))


class TestWeakNormalityProperties:
    @PROPERTY
    @given(rank3_monoids(), st.sampled_from([2, 3]))
    def test_weak_normalization(self, s, p):
        """S in sn(S) in wn_p(S) in sat(S); wn_p is idempotent; S is weakly
        normal exactly when it equals its weak normalization."""
        char = Characteristic(p)
        strat = weak_normalization(s, char)
        sn, wn = from_strata(stratify(s)), from_strata(strat)
        for small, big in ((s, sn), (sn, wn), (wn, saturation(s))):
            assert all(member(big, g) for g in small.generators)
        assert weak_normalization(wn, char) == strat
        assert is_weakly_normal(s, char) == monoid_equal(wn, s)


class TestFamiliesWithoutCheck:
    """`stratify` and `weak_normalization` build their families without
    `check_family`: they equal the families built through it, pass it as a
    postcondition, and the verdict read off them is the one that stratified
    and checked inline."""

    def check(self, s):
        strat = stratify(s)
        assert strat == stratify_checked(s)
        check_family(faces(strat.cone), dict(strat.strata))
        for p in (0, 2, 3, 5):
            char = Characteristic(p)
            wn = weak_normalization(s, char)
            assert wn == weak_normalization_checked(s, char)
            check_family(faces(wn.cone), dict(wn.strata))
            assert is_weakly_normal(s, char) == is_weakly_normal_inline(s, char)

    @PROPERTY
    @given(rank3_monoids())
    def test_rank3_monoids(self, s):
        self.check(s)

    @PROPERTY
    @given(small_monoids())
    def test_small_monoids(self, s):
        self.check(s)

    @pytest.mark.parametrize("s", [PINCH, NSG23, NN], ids=["pinch", "nsg23", "nn"])
    def test_examples(self, s):
        self.check(s)


@st.composite
def lineality_monoids(draw):
    """Monoids of rank 2 or 3 whose cone has the lineality span(e_1..e_k): the
    units are a lattice of it, often not saturated (such as +-2 e_1), and each
    pointed generator, nonnegative and nonzero off it, is shifted by a random
    unit."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, n - 1))
    small = st.integers(-3, 3)
    basis = []
    for i in range(k):
        row = [0] * n
        row[i] = draw(st.integers(1, 3))
        for j in range(i + 1, k):
            row[j] = draw(small)
        basis.append(tuple(row))
    gens = basis + [vec_neg(b) for b in basis]
    tails = draw(st.lists(st.tuples(*[st.integers(0, 3)] * (n - k)).filter(any),
                          min_size=1, max_size=3))
    for tail in tails:
        g = tuple(draw(st.tuples(*[small] * k))) + tail
        for b in basis:
            g = vec_add(g, tuple(draw(small) * x for x in b))
        gens.append(g)
    return AffineMonoid.make(n, gens)


class TestSeminormalUpToUnits:
    """An irreducible of the realized monoid need only be a generator of S up
    to a unit: the verdicts agree with the scan of every realized candidate,
    `is_weakly_normal_inline`, on cones with a lineality."""

    def check(self, s):
        for p in (0, 2, 3):
            char = Characteristic(p)
            assert is_weakly_normal(s, char) == is_weakly_normal_inline(s, char), p
        assert is_seminormal(s) == is_weakly_normal(s, Characteristic(0))

    @PROPERTY
    @given(lineality_monoids())
    def test_random_monoids(self, s):
        self.check(s)

    def test_half_plane_with_even_units(self):
        s = AffineMonoid.make(2, [(2, 0), (-2, 0), (0, 1), (1, 1)])
        self.check(s)
        assert is_seminormal(s) and not is_weakly_normal(s, Characteristic(2))

    def test_irreducible_off_the_generators(self):
        s = AffineMonoid.make(2, [(1, 0), (-1, 0), (5, 1)])
        strat = stratify(s)
        kept = list(_irreducibles(strat.cone, strat.member, _strata_candidates(strat)))
        assert kept == [(0, 1)] and (0, 1) not in s.generators
        self.check(s)
        assert is_seminormal(s)

    def test_not_seminormal(self):
        s = AffineMonoid.make(2, [(3, 0), (-3, 0), (1, 2), (0, 2), (2, 2), (7, 1)])
        self.check(s)
        assert not is_seminormal(s)


class TestOneCandidateRule:
    """A cell point takes sums of its simplex's r_i only when the realized
    monoid M does not hold it: the candidates are a subset of the blanket
    rule's (every point plus every subset sum), the same generators are
    extracted from both, and a saturated family takes its rays and points."""

    def check(self, strat):
        candidates, blanket = _strata_candidates(strat), strata_candidates_blanket(strat)
        assert candidates <= blanket
        units = strat.lattice_of(faces(strat.cone)[0])
        assert from_strata(strat) == extract_generators(strat.cone, strat.member, units, blanket)
        return candidates, blanket

    @PROPERTY
    @given(st.one_of(lineality_monoids(), rank3_monoids()))
    def test_blanket_rule_extracts_the_same(self, s):
        self.check(stratify(s))
        self.check(weak_normalization(s, Characteristic(2)))

    @settings(PROPERTY, max_examples=100)
    @given(cones_with_lineality())
    @example(LINEALITY_EXAMPLE)
    def test_saturated_family_takes_rays_and_points(self, c):
        strat = stratify(AffineMonoid.make(c.ambient_rank, cone_lattice_generators(c)))
        units = strat.lattice_of(faces(c)[0]).basis_vectors()
        points = (_parallelepiped_points(span_lattice(c), list(simplex) + units)
                  for simplex in _simplices(c))
        assert _strata_candidates(strat) == set(c.rays).union(*points)

    def test_pinch(self):
        # (1, 0) is the one point outside M, and its coordinate on r = (0, 1) is 0
        candidates, blanket = self.check(stratify(PINCH))
        assert candidates == {(0, 0), (1, 0), (1, 1), (2, 0), (0, 1)}
        assert len(blanket) == 8

    def test_cube_4_facet(self):
        c = cone_from_generators(4, scale_models.cube(4)["cones"]["x1+"])
        strat = stratify(AffineMonoid.make(4, cone_lattice_generators(c)))
        candidates, blanket = self.check(strat)
        assert (len(candidates), len(blanket)) == (34, 584)
        assert len(from_strata(strat).generators) == 27


class TestRelativeBudget:
    """Relative candidates are counted, prod c_j * 2^|rays|, before any is listed."""

    def test_refused_with_the_estimate(self):
        s = AffineMonoid.make(3, [(50, 0, 0), (0, 50, 0), (0, 0, 50), (1, 1, 1)])
        sp = saturation(s)
        start = time.process_time()
        with pytest.raises(WorkTooLarge, match=" 1000000 candidates; the limit is 100000") as e:
            relative_sn(s, sp)
        assert e.value.estimate == 8 * 50**3
        assert time.process_time() - start < 1

    @PROPERTY
    @given(st.integers(1, 2).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=3)))
    def test_estimate_bounds_the_candidates(self, gens):
        s = AffineMonoid.make(len(gens[0]), gens)
        sp = saturation(s)
        with patch.object(torf.monoids, "MAX_RELATIVE_CANDIDATES", 0):
            with pytest.raises(WorkTooLarge) as e:
                relative_sn(s, sp)
        assume(e.value.estimate <= 10**4)  # a test-sized enumeration
        listed = []
        real = torf.monoids._relative_candidates

        def counted(*args):
            listed.append(real(*args))
            return listed[-1]

        with patch.object(torf.monoids, "_relative_candidates", counted):
            with patch.object(torf.monoids, "MAX_RELATIVE_CANDIDATES", e.value.estimate):
                assert monoid_equal(relative_sn(s, sp), from_strata(stratify(s)))
        assert 0 < len(listed[0]) <= e.value.estimate
