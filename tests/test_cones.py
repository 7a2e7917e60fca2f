"""Rational cones, face lattices, and fans."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from torf.errors import (
    BadIntersection,
    DimensionMismatch,
    MissingFace,
    NotAFace,
)
from torf.cones import (
    Cone,
    cone_difference,
    cone_from_generators,
    cone_from_h,
    dual_rays,
    face_fan_closure,
    faces,
    fan_facets,
    fan_minimal_cone,
    fan_validate,
    intersect,
    is_face_of,
    relint_contains,
    relint_point,
)
from torf.linalg import IntMatrix, rank, vec_dot


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
        assert relint_contains(QUAD, (1, 1))
        assert not relint_contains(QUAD, (1, 0))
        assert relint_contains(XRAY, (3, 0))
        assert not relint_contains(XRAY, (0, 0))

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
        assert fan_facets(f) == [QUAD]
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
    def test_rays_are_extreme(self, c):
        # r is extreme iff the constraints tight at r have rank n - lin_dim - 1
        n = c.ambient_rank
        for r in c.rays:
            tight = [a for a in c.ineqs if vec_dot(a, r) == 0] + list(c.eqs)
            assert rank(IntMatrix.from_rows(tight, ncols=n)) == n - c.lin_dim - 1


def all_pairs_failure(cones):
    """First pair, in canonical order, whose intersection is not a common
    face, as (cone1, cone2, witness); None when every pair passes."""
    cone_list = sorted(set(cones), key=Cone.sort_key)
    for i, c1 in enumerate(cone_list):
        for c2 in cone_list[i + 1 :]:
            common = intersect(c1, c2)
            if not (is_face_of(common, c1) and is_face_of(common, c2)):
                return c1, c2, relint_point(common)
    return None


@st.composite
def face_closures(draw):
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    cone = st.lists(vec, max_size=3).map(lambda gens: cone_from_generators(n, gens))
    tops = draw(st.lists(cone, min_size=2, max_size=3))
    return n, {f for c in tops for f in faces(c)}


class TestFanValidateProperties:
    """Skipping pairs that share a cone changes no verdict and no witness."""

    @PROPERTY
    @given(face_closures())
    def test_matches_all_pairs_check(self, case):
        n, closure = case
        failure = all_pairs_failure(closure)
        if failure is None:
            assert fan_validate(n, closure).cones == tuple(sorted(closure, key=Cone.sort_key))
        else:
            with pytest.raises(BadIntersection) as e:
                fan_validate(n, closure)
            assert (e.value.cone1, e.value.cone2, e.value.witness) == failure
