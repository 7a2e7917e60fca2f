"""Rational cones, face lattices, and fans."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import torf.cones
import torf.linalg
from torf.errors import (
    BadIntersection,
    DimensionMismatch,
    MissingFace,
    NotAFace,
    NotASubfan,
    TorfError,
)
from torf.cones import (
    Cone,
    cone_difference,
    cone_from_generators,
    cone_from_h,
    dual_rays,
    face_fan_closure,
    faces,
    fan_minimal_cone,
    fan_validate,
    intersect,
    is_face_of,
    locate,
    subfan,
)
from torf.linalg import IntMatrix, rank, vec_add, vec_dot

from reference import all_pairs_failure, face_from_scratch, first_missing_face, locate_scan


QUAD = cone_from_generators(2, [(1, 0), (0, 1)])
XRAY = cone_from_generators(2, [(1, 0)])
YRAY = cone_from_generators(2, [(0, 1)])
ZERO2 = cone_from_generators(2, [])


class TestDualRays:
    def test_quadrant(self):
        rays, lin = dual_rays(2, [(1, 0), (0, 1)])
        assert sorted(rays) == [(0, 1), (1, 0)]
        assert lin == []

    def test_halfplane(self):
        rays, lin = dual_rays(2, [(0, 1)])
        assert rays == [(0, 1)]
        assert [tuple(map(abs, l)) for l in lin] == [(1, 0)]

    def test_rays_satisfy_covectors(self):
        rng = random.Random(20)
        for _ in range(30):
            covs = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
            rays, lin = dual_rays(3, covs)
            for r in rays:
                assert all(vec_dot(a, r) >= 0 for a in covs)
            for l in lin:
                assert all(vec_dot(a, l) == 0 for a in covs)


class TestConeStructure:
    def test_generators_contained(self):
        rng = random.Random(21)
        for _ in range(30):
            gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
            c = cone_from_generators(3, gens)
            for g in gens:
                assert c.contains(g)

    def test_h_and_v_agree(self):
        c = cone_from_h(2, [(1, 0), (0, 1)], [])
        assert c == QUAD

    def test_h_dimension_mismatch(self):
        for ineqs, eqs in (([(1, 0, 5)], []), ([(1,)], []), ([(1, 0)], [(0, 1, 0)])):
            with pytest.raises(DimensionMismatch):
                cone_from_h(2, ineqs, eqs)

    def test_canonical_equality(self):
        c1 = cone_from_generators(2, [(1, 0), (0, 1), (1, 1)])
        assert c1 == QUAD
        c2 = cone_from_generators(2, [(2, 0), (0, 3)])
        assert c2 == QUAD

    def test_contains_boundary_and_outside(self):
        assert QUAD.contains((0, 5))
        assert not QUAD.contains((-1, 0))

    def test_relint(self):
        assert locate(QUAD, (1, 1)) == QUAD
        assert locate(QUAD, (1, 0)) != QUAD
        assert locate(XRAY, (3, 0)) == XRAY
        assert locate(XRAY, (0, 0)) != XRAY

    def test_lineality(self):
        half = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        assert half.lin_dim == 1
        assert half.dim == 2
        assert half.contains((-7, 0))


class TestFaces:
    def test_quadrant_faces(self):
        fs = faces(QUAD)
        assert len(fs) == 4
        assert ZERO2 in fs and XRAY in fs and YRAY in fs and QUAD in fs

    def test_face_relation(self):
        assert is_face_of(XRAY, QUAD)
        assert not is_face_of(QUAD, XRAY)
        diag = cone_from_generators(2, [(1, 1)])
        assert not is_face_of(diag, QUAD)

    def test_face_count_octant(self):
        oct3 = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(faces(oct3)) == 8

    def test_subspace_single_face(self):
        plane = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert faces(plane) == (plane,)

    def test_intersect(self):
        left = cone_from_generators(2, [(0, 1), (-1, 0)])
        assert intersect(QUAD, left) == YRAY

    def test_difference(self):
        d = cone_difference(QUAD, XRAY)
        assert d.lin_dim == 1
        assert d.contains((-4, 0)) and d.contains((0, 1))
        assert not d.contains((0, -1))

    def test_difference_requires_face(self):
        diag = cone_from_generators(2, [(1, 1)])
        with pytest.raises(NotAFace):
            cone_difference(QUAD, diag)


class TestFans:
    def test_face_fan_closure(self):
        f = face_fan_closure(2, [QUAD])
        assert len(f) == 4
        assert list(f.facets) == [QUAD]
        assert fan_minimal_cone(f) == ZERO2

    def test_star_fan(self):
        # the star of XRAY: each cone having XRAY as a face, with XRAY negated
        f = face_fan_closure(2, [QUAD])
        star = [cone_difference(c, XRAY) for c in f if is_face_of(XRAY, c)]
        s = fan_validate(2, star)
        assert len(s) == 2
        dims = sorted((c.dim, c.lin_dim) for c in s)
        assert dims == [(1, 1), (2, 1)]
        assert fan_minimal_cone(s) == cone_from_generators(2, [(1, 0), (-1, 0)])

    def test_missing_face_rejected(self):
        with pytest.raises(MissingFace):
            fan_validate(2, [QUAD, ZERO2])

    def test_overlap_rejected(self):
        tilted = cone_from_generators(2, [(1, 1), (-1, 1)])
        with pytest.raises(BadIntersection):
            fan_validate(2, list(faces(QUAD)) + list(faces(tilted)))

    def test_two_quadrants_share_ray(self):
        left = cone_from_generators(2, [(0, 1), (-1, 0)])
        f = fan_validate(2, list(faces(QUAD)) + list(faces(left)))
        # zero, three rays, and two maximal cones; the shared ray is deduplicated
        assert len(f) == 6

    def test_minimal_cone_is_subspace(self):
        half = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        f = face_fan_closure(2, [half])
        mini = fan_minimal_cone(f)
        assert mini.rays == ()
        assert mini.lin_dim == 1


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
LINEALITY_EXAMPLE = cone_from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 1, -1)])


@st.composite
def cones(draw):
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    return cone_from_generators(n, draw(st.lists(vec, max_size=7)))


class TestConeProperties:
    """Every construction path gives the same canonical cone."""

    @PROPERTY
    @given(cones())
    def test_h_and_v_roundtrip(self, c):
        n = c.ambient_rank
        assert cone_from_h(n, c.ineqs, c.eqs) == c == cone_from_generators(n, c.generators)

    @PROPERTY
    @given(cones())
    def test_faces_and_differences_match_generators(self, c):
        n = c.ambient_rank
        for f in faces(c):
            assert f == cone_from_generators(n, f.generators)
            d = cone_difference(c, f)
            assert d == cone_from_generators(n, d.generators)

    @PROPERTY
    @given(cones())
    @example(LINEALITY_EXAMPLE)
    def test_faces_from_parent_match_scratch(self, c):
        # a face keeps its cone's rays, lineality and covectors
        for f in faces(c):
            assert f == face_from_scratch(c, f.rays)
            assert is_face_of(f, c)

    @PROPERTY
    @given(cones())
    def test_rays_are_extreme(self, c):
        # r is extreme iff the constraints tight at r have rank n - lin_dim - 1
        n = c.ambient_rank
        for r in c.rays:
            tight = [a for a in c.ineqs if vec_dot(a, r) == 0] + list(c.eqs)
            assert rank(IntMatrix.from_rows(tight, ncols=n)) == n - c.lin_dim - 1


class TestFaceContract:
    """A face keeps its cone's covectors and is the cone its generators give:
    one value, and the same answers from either H-description."""

    @PROPERTY
    @given(cones())
    @example(LINEALITY_EXAMPLE)
    @example(cone_from_generators(0, []))
    def test_face_agrees_with_cone_of_its_generators(self, c):
        n = c.ambient_rank
        bound = 2 if n <= 2 else 1
        box = list(itertools.product(range(-bound, bound + 1), repeat=n))
        assert faces.__wrapped__(c)[-1] is c
        for f in faces(c):
            g = cone_from_generators(n, f.generators)
            assert hash(f) == hash(g) and len({f: 0, g: 1}) == 1
            assert f.dim == g.dim
            assert faces.__wrapped__(f) == faces.__wrapped__(g)
            assert is_face_of(f, c) and is_face_of(g, c)
            assert all(is_face_of(h, f) == is_face_of(h, g) for h in faces(c))
            for m in box:
                assert f.contains(m) == g.contains(m)
                assert locate(f, m) == locate(g, m)


@st.composite
def face_closures(draw, min_cones=2, max_cones=3):
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    cone = st.lists(vec, max_size=3).map(lambda gens: cone_from_generators(n, gens))
    tops = draw(st.lists(cone, min_size=min_cones, max_size=max_cones))
    return n, {f for c in tops for f in faces(c)}


def check_against_all_pairs(n, closure):
    """fan_validate's verdict, and its failing pair and witness, are those of
    the all-pairs scan."""
    failure = all_pairs_failure(closure)
    if failure is None:
        assert fan_validate(n, closure).cones == tuple(sorted(closure, key=Cone.sort_key))
    else:
        with pytest.raises(BadIntersection) as e:
            fan_validate(n, closure)
        assert (e.value.cone1, e.value.cone2, e.value.witness) == failure


class TestFanValidateProperties:
    """Deciding a fan from its maximal cones changes no verdict and no witness."""

    @PROPERTY
    @given(face_closures())
    def test_matches_all_pairs_check(self, case):
        check_against_all_pairs(*case)

    @settings(PROPERTY, max_examples=15)
    @given(face_closures(3, 5))
    def test_matches_all_pairs_check_on_more_cones(self, case):
        check_against_all_pairs(*case)


class TestMissingFaceProperties:
    """Only the maximal cones list their faces, and a missing face is named as
    the scan over the faces of every listed cone names it."""

    @PROPERTY
    @given(face_closures(1, 3), st.data())
    def test_matches_scan_over_every_cone(self, case, data):
        n, closure = case
        cones = sorted(closure, key=Cone.sort_key)
        kept = set(cones) - data.draw(st.sets(st.sampled_from(cones), max_size=2))
        assume(kept)
        missing = first_missing_face(kept)
        if missing is not None:
            with pytest.raises(MissingFace) as e:
                fan_validate(n, kept)
            assert (e.value.cone, e.value.face) == missing
            return
        try:
            fan = fan_validate(n, kept)
        except BadIntersection:
            return
        assert fan.facets == tuple(c for c in fan.cones
                                   if not any(c != d and is_face_of(c, d) for d in fan.cones))


def closure_of(cones):
    return {f for c in cones for f in faces(c)}


def subfan_or_error(fan, cones):
    """subfan's answer, or its error class and message."""
    try:
        return subfan(fan, cones)
    except TorfError as e:
        return type(e), str(e)


def closure_then_membership(fan, cones):
    """What validating the closure, then looking for a cone off the fan gives."""
    try:
        sub = face_fan_closure(fan.ambient_rank, cones)
    except TorfError as e:
        return type(e), str(e)
    outside = [c for c in sub if c not in fan]
    return (NotASubfan, f"{outside[0]} is not in the complex fan") if outside else sub


class TestSubfanProperties:
    """A face-closed set of cones of a fan is a fan: subfan intersects nothing
    and gives what validating the closure gives, errors included."""

    @PROPERTY
    @given(face_closures(1, 3), st.data())
    def test_matches_fan_validate(self, case, data):
        n, closure = case
        try:
            fan = fan_validate(n, closure)
        except BadIntersection:
            return
        picked = data.draw(st.lists(st.sampled_from(fan.cones), min_size=1, max_size=3))
        assert subfan(fan, picked) == fan_validate(n, closure_of(picked))

    @PROPERTY
    @given(face_closures(1, 2), face_closures(1, 2))
    def test_off_the_fan_matches_closure_then_membership(self, case, other):
        (n, closure), (m, more) = case, other
        try:
            fan = fan_validate(n, closure)
        except BadIntersection:
            return
        picked = [max(closure, key=Cone.sort_key)] + (list(more) if m == n else [])
        assert subfan_or_error(fan, picked) == closure_then_membership(fan, picked)

    def test_no_intersection(self, monkeypatch):
        fan = fan_validate(3, closure_of(octants(3)))
        monkeypatch.setattr(torf.cones, "intersect", lambda *a: pytest.fail("intersected"))
        sub = subfan(fan, octants(3)[:2])
        assert (len(sub), len(sub.facets)) == (12, 2)


def octants(n):
    """The maximal cones of the complete fan of (P^1)^n."""
    e = lambda i, s: tuple(s if j == i else 0 for j in range(n))
    return [cone_from_generators(n, [e(i, s) for i, s in enumerate(signs)])
            for signs in itertools.product((1, -1), repeat=n)]


def projective_cones(n):
    """The maximal cones of the complete fan of P^n."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return [cone_from_generators(n, rays[:k] + rays[k + 1 :]) for k in range(n + 1)]


class TestFanFromMaximalCones:
    """A fan is decided from its maximal cones, and every cone's faces are
    read off its stored descriptions."""

    @pytest.mark.parametrize("tops, cones, facets", [(octants(3), 27, 8),
                                                     (projective_cones(3), 15, 4)])
    def test_complete_fans(self, tops, cones, facets):
        fan = fan_validate(3, {f for c in tops for f in faces(c)})
        assert (len(fan), len(fan.facets)) == (cones, facets)
        assert set(fan.facets) == set(tops)

    def test_intersects_maximal_pairs_and_builds_faces_without_hnf(self, monkeypatch):
        tops = octants(3)
        listed = {f for c in tops for f in faces(c)}
        building = []  # the cones whose faces are being built, innermost last
        built = []

        def traced_faces(c):
            building.append(c)
            built.append(c)
            try:
                return faces.__wrapped__(c)
            finally:
                building.pop()

        def refused(name, real):
            def call(*args):
                if building:
                    pytest.fail(f"{name} while building the faces of {building[-1]}")
                return real(*args)
            return call

        # a fresh face cache, so that every face built in fan_validate is seen
        monkeypatch.setattr(torf.cones, "faces", lru_cache(maxsize=None)(traced_faces))
        for module, name in ((torf.linalg, "hnf"), (torf.linalg, "_hnf_in_place"),
                             (torf.linalg, "snf"), (torf.cones, "snf")):
            monkeypatch.setattr(module, name, refused(name, getattr(module, name)))
        intersected = []
        real_intersect = torf.cones.intersect
        monkeypatch.setattr(torf.cones, "intersect",
                            lambda c1, c2: intersected.append({c1, c2}) or real_intersect(c1, c2))
        fan = torf.cones.fan_validate(3, listed)
        assert len(fan) == 27
        assert len(intersected) == 28
        pairs = itertools.combinations(tops, 2)
        assert set(map(frozenset, intersected)) == set(map(frozenset, pairs))
        assert sorted(built, key=Cone.sort_key) == list(fan.facets)


LOCATE_EXAMPLES = (
    cone_from_generators(0, []),  # the rank-0 cone
    cone_from_generators(2, []),
    cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)]),  # a half-plane: lineality
    cone_from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 1, -1)]),
    cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
)


class TestLocate:
    """The face holding a degree in its relative interior, read off the inequality values."""

    @PROPERTY
    @given(cones())
    @example(LOCATE_EXAMPLES[0])
    @example(LOCATE_EXAMPLES[1])
    @example(LOCATE_EXAMPLES[2])
    @example(LOCATE_EXAMPLES[3])
    @example(LOCATE_EXAMPLES[4])
    def test_matches_face_scan(self, c):
        n = c.ambient_rank
        bound = 2 if n <= 2 else 1
        for m in itertools.product(range(-bound, bound + 1), repeat=n):
            f = locate(c, m)
            assert f == locate_scan(c, m)
            assert (f is None) == (not c.contains(m))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            locate(QUAD, (1, 0, 0))

    @settings(PROPERTY, max_examples=30)
    @given(cones())
    @example(LINEALITY_EXAMPLE)
    def test_faces_of_a_face_are_the_faces_inside_it(self, c):
        for f in faces(c):
            inside = set(f.rays)
            assert faces(f) == tuple(g for g in faces(c) if inside.issuperset(g.rays))


class TestContains:
    """`Cone.contains` is the definition: eqs vanish and ineqs are >= 0."""

    @PROPERTY
    @given(cones(), st.data())
    def test_matches_definition(self, c, data):
        n = c.ambient_rank
        big = st.integers(-(2**70), 2**70)
        picks = [data.draw(st.tuples(*[st.integers(-3, 3)] * n)),
                 data.draw(st.tuples(*[big] * n))]
        picks += [vec_add(p, g) for p in picks for g in c.generators[:2]]
        for m in picks:
            want = (all(sum(e[i] * m[i] for i in range(n)) == 0 for e in c.eqs)
                    and all(sum(a[i] * m[i] for i in range(n)) >= 0 for a in c.ineqs))
            assert c.contains(m) == c.contains(list(m)) == want

    def test_wrong_length(self):
        for v in ((1, 0, 0), [1], (), [0, 0, 0]):
            with pytest.raises(DimensionMismatch):
                QUAD.contains(v)
