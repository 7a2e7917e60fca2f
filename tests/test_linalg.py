"""Exact integer linear algebra: normal forms, kernels, sublattices."""

import random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from torf.errors import DimensionMismatch
from torf.linalg import (
    IntMatrix,
    Sublattice,
    hnf,
    kernel_cols,
    lattice_contains,
    lattice_coords,
    lattice_residue,
    member_lattice,
    rank,
    saturate,
    smith_columns,
    snf,
    solve_integer,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_neg,
    vec_scale,
    vec_sub,
)
from torf.monoids import _lattice_intersection, _p_saturation, stratum_index

from reference import (
    NotASublattice,
    coset_reps,
    det,
    lattice_index,
    lattice_sum,
    p_saturation_in,
    rational_coords,
    saturate_by_kernels,
)


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], ncols=cols
    )


def is_unimodular(u):
    return u.rows == u.cols and abs(det(u)) == 1


class TestHNF:
    def test_diagonal_example(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        h, u = hnf(a)
        assert h == IntMatrix.from_rows([[2, 0], [0, 3]])
        assert is_unimodular(u)

    def test_transform_relation(self):
        rng = random.Random(11)
        for _ in range(50):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            h, u = hnf(a)
            assert a.mul(u) == h
            assert is_unimodular(u)

    def test_pivots_positive_and_reduced(self):
        rng = random.Random(12)
        for _ in range(50):
            a = random_matrix(rng, 3, 3)
            h, _u = hnf(a)
            for j in range(h.cols):
                col = h.col(j)
                nz = [i for i, x in enumerate(col) if x != 0]
                if not nz:
                    continue
                piv_row = nz[0]
                piv = col[piv_row]
                assert piv > 0
                # entries left of the pivot in its row are reduced mod pivot
                for k in range(j):
                    assert 0 <= h.entry(piv_row, k) < piv


class TestSNF:
    def test_example(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        d, u, v = snf(a)
        assert d == IntMatrix.from_rows([[1, 0], [0, 6]])

    def test_divisibility_and_transforms(self):
        rng = random.Random(13)
        for _ in range(50):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            d, u, v = snf(a)
            assert u.mul(a).mul(v) == d
            assert is_unimodular(u) and is_unimodular(v)
            diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0

    # Cone._projector reads canonical rays modulo the lineality off the U of
    # snf(basis), so the transforms are pinned, not only D: saturated column
    # HNF bases of rank 1-3 in Z^3 and Z^4, and two non-saturated bases.
    @pytest.mark.parametrize("basis, d, u, v", [
        ([[2], [-1], [3]], [[1], [0], [0]],
         [[0, -1, 0], [1, 2, 0], [0, 3, 1]], [[1]]),
        ([[1, 0], [0, 1], [-2, 3]], [[1, 0], [0, 1], [0, 0]],
         [[1, 0, 0], [0, 1, 0], [2, -3, 1]], [[1, 0], [0, 1]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ([[0], [3], [1], [-2]], [[1], [0], [0], [0]],
         [[0, 0, 1, 0], [0, 1, -3, 0], [1, 0, 0, 0], [0, 0, 2, 1]], [[1]]),
        ([[0, 0], [1, 0], [2, 3], [0, 1]], [[1, 0], [0, 1], [0, 0], [0, 0]],
         [[0, 1, 0, 0], [0, 0, 0, 1], [0, -2, 1, -3], [1, 0, 0, 0]], [[1, 0], [0, 1]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [3, -3, 5]],
         [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-3, 3, -5, 1]],
         [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ([[2, 0], [1, 3], [0, 6]], [[1, 0], [0, 6], [0, 0]],
         [[0, 1, 0], [-1, 2, 0], [1, -2, 1]], [[1, -3], [0, 1]]),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 1], [0, -2, 2]],
         [[1, 0, 0], [0, 1, 0], [0, 0, 2], [0, 0, 0]],
         [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 1, -2, 1]],
         [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    ])
    def test_transforms_pinned(self, basis, d, u, v):
        a = IntMatrix.from_rows(basis)
        assert Sublattice.from_generators(a.rows, a.col_list()).basis == a
        got = snf(a)
        assert got == (IntMatrix.from_rows(d), IntMatrix.from_rows(u), IntMatrix.from_rows(v))
        assert got[1].mul(a).mul(got[2]) == got[0]


class TestRankDet:
    def test_rank_vs_snf(self):
        rng = random.Random(14)
        for _ in range(50):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            d, _u, _v = snf(a)
            nonzero = sum(
                1 for i in range(min(d.rows, d.cols)) if d.entry(i, i) != 0
            )
            assert rank(a) == nonzero

    def test_det_multiplicative(self):
        rng = random.Random(15)
        for _ in range(30):
            a = random_matrix(rng, 3, 3)
            b = random_matrix(rng, 3, 3)
            assert det(a.mul(b)) == det(a) * det(b)

    def test_against_sympy(self):
        """Every shape up to 5 x 5 with the 0 x 0 matrix, dependent rows, and
        zero leading entries that force row swaps (signs matter: a det that
        dropped them, or returned |det|, fails)."""
        rng = random.Random(18)
        cases = [IntMatrix(0, 0, ()), IntMatrix(0, 3, ()), IntMatrix(3, 0, ()),
                 IntMatrix.from_rows([[0, 1], [1, 0]]),
                 IntMatrix.from_rows([[0, 0, 2], [0, 3, 1], [5, 1, 1]]),
                 IntMatrix.from_rows([[0, 2, 1], [0, 4, 2], [1, 1, 1]])]
        for _ in range(400):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            m = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(cols)]
                 for _ in range(rows)]
            if rows > 1 and rng.random() < 0.3:
                m[-1] = [x * rng.randint(-2, 2) + y for x, y in zip(m[0], m[1])]
            cases.append(IntMatrix.from_rows(m, cols))
        swapped = 0
        for a in cases:
            ref = sympy.Matrix(a.rows, a.cols, list(a.entries))
            assert rank(a) == ref.rank()
            if a.rows == a.cols:
                assert det(a) == ref.det()
                swapped += a.rows > 1 and a.entry(0, 0) == 0 and ref.det() != 0
            else:
                with pytest.raises(DimensionMismatch):
                    det(a)
        assert swapped >= 5


class TestSolveKernel:
    def test_solve_roundtrip(self):
        rng = random.Random(16)
        for _ in range(50):
            a = random_matrix(rng, 3, rng.randint(1, 3))
            x = tuple(rng.randint(-5, 5) for _ in range(a.cols))
            v = a.mul_vec(x)
            y = solve_integer(a, v)
            assert y is not None
            assert a.mul_vec(y) == v

    def test_solve_none_outside_lattice(self):
        a = IntMatrix.from_cols([(2, 0), (0, 2)], nrows=2)
        assert solve_integer(a, (1, 0)) is None

    def test_kernel_example(self):
        a = IntMatrix.from_rows([[2, 4]])
        k = kernel_cols(a)
        assert k.cols == 1
        x = k.col(0)
        assert a.mul_vec(x) == (0,)
        assert x in ((2, -1), (-2, 1))

    def test_kernel_is_saturated(self):
        rng = random.Random(17)
        for _ in range(30):
            a = random_matrix(rng, 2, 4)
            k = kernel_cols(a)
            lat = Sublattice.from_generators(4, [k.col(j) for j in range(k.cols)])
            assert saturate(lat) == lat


class TestSublattice:
    def test_canonical_basis_independent_of_generators(self):
        rng = random.Random(18)
        for _ in range(30):
            gens = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4)]
            lat = Sublattice.from_generators(3, gens)
            doubled = Sublattice.from_generators(3, gens + gens + [lat.basis_vectors()[0] if lat.rank else (0, 0, 0)])
            assert lat == doubled

    def test_membership(self):
        lat = Sublattice.from_generators(2, [(2, 0), (0, 3)])
        assert member_lattice(lat, (4, 3))
        assert not member_lattice(lat, (1, 0))
        assert member_lattice(lat, (0, 0))

    def test_index(self):
        lat = Sublattice.from_generators(2, [(2, 0), (0, 3)])
        assert lattice_index(lat, Sublattice.full(2)) == 6

    def test_index_infinite(self):
        line = Sublattice.from_generators(2, [(1, 0)])
        assert lattice_index(line, Sublattice.full(2)) is None

    def test_index_requires_containment(self):
        a = Sublattice.from_generators(2, [(2, 0), (0, 1)])
        b = Sublattice.from_generators(2, [(3, 0), (0, 1)])
        with pytest.raises(NotASublattice):
            lattice_index(a, b)

    def test_saturation(self):
        lat = Sublattice.from_generators(2, [(2, 2)])
        sat = saturate(lat)
        assert sat.basis_vectors() == [(1, 1)]

    def test_saturate_idempotent(self):
        rng = random.Random(19)
        for _ in range(30):
            gens = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(2)]
            s = saturate(Sublattice.from_generators(3, gens))
            assert saturate(s) == s

    def test_sum_and_containment(self):
        a = Sublattice.from_generators(2, [(2, 0)])
        b = Sublattice.from_generators(2, [(0, 3)])
        s = lattice_sum(a, b)
        assert lattice_contains(s, a) and lattice_contains(s, b)
        assert member_lattice(s, (2, 3))


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ENTRY = st.integers(-30, 30)
BIG = st.integers(-(2**70), 2**70)  # past 64 bits


def vectors(n):
    return st.tuples(*[ENTRY] * n)


def full_rank_sublattice(data, sup):
    """A sublattice of `sup` of the same rank and index at most 3^rank: the
    span of sup's basis times a lower triangular matrix, which reaches every
    such sublattice through its column HNF."""
    r = sup.rank
    m = [[data.draw(st.integers(1, 3)) if i == j else data.draw(ENTRY) if i > j else 0
          for j in range(r)] for i in range(r)]
    cols = IntMatrix.from_rows(m, ncols=r).col_list()
    return Sublattice.from_generators(sup.ambient_rank, [sup.basis.mul_vec(c) for c in cols])


class TestLatticeCoords:
    """Forward substitution on the stored HNF against the general solver."""

    @PROPERTY
    @given(st.data())
    def test_agrees_with_solve_integer(self, data):
        n = data.draw(st.integers(1, 4))
        lat = Sublattice.from_generators(n, data.draw(st.lists(vectors(n), max_size=4)))
        coeffs = tuple(data.draw(st.one_of(ENTRY, BIG)) for _ in range(lat.rank))
        inside = lat.basis.mul_vec(coeffs)
        other = data.draw(st.one_of(vectors(n), st.tuples(*[BIG] * n)))
        assert lattice_coords(lat, inside) == coeffs
        for v in (inside, other, vec_add(inside, other), list(other)):
            y = lattice_coords(lat, v)
            assert y == solve_integer(lat.basis, v) == rational_coords(lat.basis_vectors(), v)
            assert y is None or lat.basis.mul_vec(y) == tuple(v)
            assert member_lattice(lat, v) == (y is not None)

    def test_non_member_rows(self):
        lat = Sublattice.from_generators(3, [(2, 1, 0), (0, 3, 0)])
        assert lattice_coords(lat, (2, 4, 0)) == (1, 1)
        assert lattice_coords(lat, (1, 0, 0)) is None  # pivot does not divide
        assert lattice_coords(lat, (2, 4, 1)) is None  # remainder below the pivots
        line = Sublattice.from_generators(3, [(0, 2, 2)])
        assert lattice_coords(line, (0, 4, 4)) == (2,)
        assert lattice_coords(line, (1, 2, 2)) is None  # row above the pivot left over
        assert lattice_coords(Sublattice.zero(2), (0, 0)) == ()

    @PROPERTY
    @given(st.data())
    def test_snf_inverse_transform(self, data):
        # U A V = D gives U^-1 = A V D^-1 column by column, the identity the
        # parallelepiped and p-saturation code uses instead of inverting U
        d = data.draw(st.integers(1, 4))
        a = IntMatrix.from_rows([[data.draw(ENTRY) for _ in range(d)] for _ in range(d)])
        assume(det(a) != 0)
        dm, u, v = snf(a)
        av = a.mul(v)
        cols = []
        for i in range(d):
            assert all(x % dm.entry(i, i) == 0 for x in av.col(i))
            cols.append([x // dm.entry(i, i) for x in av.col(i)])
        expected = sympy.Matrix(d, d, list(u.entries)).inv()
        assert sympy.Matrix(cols).T == expected

    @PROPERTY
    @given(st.data())
    def test_coset_reps_count_is_index(self, data):
        n = data.draw(st.integers(1, 4))
        sup = Sublattice.from_generators(n, data.draw(st.lists(vectors(n), min_size=1, max_size=4)))
        assume(sup.rank > 0)
        sub = full_rank_sublattice(data, sup)
        reps = coset_reps(sup, sub)
        assert len(reps) == lattice_index(sub, sup)
        assert all(member_lattice(sup, x) for x in reps)
        for i, x in enumerate(reps):
            assert not any(member_lattice(sub, vec_sub(x, y)) for y in reps[:i])

    @PROPERTY
    @given(st.data(), st.sampled_from([2, 3]))
    def test_p_saturation_is_p_primary_part(self, data, p):
        # sub <= L <= sup with [L : sub] a power of p and [sup : L] prime to
        # p pins L down: L / sub is the Sylow p-subgroup of sup / sub
        n = data.draw(st.integers(1, 4))
        sup = Sublattice.from_generators(n, data.draw(st.lists(vectors(n), min_size=1, max_size=4)))
        assume(sup.rank > 0)
        sub = full_rank_sublattice(data, sup)
        sat = _lattice_intersection(_p_saturation(sub, p), sup)
        low, high = lattice_index(sub, sat), lattice_index(sat, sup)
        assert low * high == lattice_index(sub, sup)
        assert high % p != 0
        while low % p == 0:
            low //= p
        assert low == 1



class TestLatticeResidue:
    """One residue per coset, read off the stored HNF: v and v + w, for w in
    the lattice, share it, it differs from v by a lattice vector, and it is 0
    exactly on the lattice."""

    @PROPERTY
    @given(st.data())
    def test_one_residue_per_coset(self, data):
        n = data.draw(st.integers(1, 4))
        lat = Sublattice.from_generators(n, data.draw(st.lists(vectors(n), max_size=4)))
        v = data.draw(vectors(n))
        w = lat.basis.mul_vec(tuple(data.draw(ENTRY) for _ in range(lat.rank)))
        res, zero = lattice_residue(lat, v), tuple(0 for _ in range(n))
        assert member_lattice(lat, vec_sub(v, res))
        assert lattice_residue(lat, vec_add(v, w)) == res
        assert lattice_residue(lat, w) == zero
        assert (res == zero) == member_lattice(lat, v)

def lattices(data, n):
    """A sublattice of Z^n of each rank 0..n, on entries up to 30."""
    r = data.draw(st.integers(0, n), label="rank")
    lat = Sublattice.from_generators(n, data.draw(st.lists(vectors(n), min_size=r, max_size=r)))
    assume(lat.rank == r)
    return lat


EDGE_LATTICES = [Sublattice.zero(n) for n in range(5)] + [Sublattice.full(n) for n in range(5)] + [
    Sublattice.from_generators(4, [(2, 0, 0, 0), (0, 6, 0, 0), (0, 0, 30, 0), (0, 0, 0, 4)]),
    Sublattice.from_generators(3, [(30, -30, 0), (0, 12, 18)]),
    Sublattice.from_generators(2, [(4, 6)]),
]


class TestSmithColumns:
    """Saturation, stratum index and p-saturation from one Smith form of a
    lattice's basis, against the kernel, determinant and coordinate-Smith
    constructions they replaced (`tests/reference.py`)."""

    def check(self, lat):
        sat = saturate_by_kernels(lat)
        d, cols = smith_columns(lat)
        assert len(d) == len(cols) == lat.rank
        assert all(di > 0 for di in d) and all(b % a == 0 for a, b in zip(d, d[1:]))
        assert Sublattice.from_generators(lat.ambient_rank, cols) == lat
        quotients = [tuple(x // di for x in c) for di, c in zip(d, cols)]
        assert all(vec_scale(di, q) == c for di, q, c in zip(d, quotients, cols))
        assert Sublattice.from_generators(lat.ambient_rank, quotients) == sat
        assert saturate(lat) == sat
        assert stratum_index(lat) == lattice_index(lat, sat)
        for p in (2, 3, 5):
            assert _p_saturation(lat, p) == p_saturation_in(lat, sat, p), p

    @PROPERTY
    @given(st.data())
    def test_agrees_with_references(self, data):
        self.check(lattices(data, data.draw(st.integers(0, 4), label="n")))

    @pytest.mark.parametrize("lat", EDGE_LATTICES, ids=lambda lat: f"n{lat.ambient_rank}r{lat.rank}")
    def test_edge_ranks(self, lat):
        self.check(lat)

    def test_examples(self):
        lat = EDGE_LATTICES[-3]  # diag(2, 6, 30, 4): invariant factors 2, 2, 6, 60
        assert smith_columns(lat)[0] == [2, 2, 6, 60]
        assert stratum_index(lat) == 2 * 6 * 30 * 4
        assert _p_saturation(lat, 3) == Sublattice.from_generators(
            4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 10, 0), (0, 0, 0, 4)])
        assert _p_saturation(Sublattice.zero(3), 2) == Sublattice.zero(3)


class TestVectorKernels:
    """The map/operator kernels against plain loops, for tuples and lists."""

    @PROPERTY
    @given(st.data())
    def test_match_naive_loops(self, data):
        n = data.draw(st.integers(0, 5))
        u, v = (list(data.draw(st.tuples(*[BIG] * n))) for _ in range(2))
        c = data.draw(BIG)
        for x, y in ((u, v), (tuple(u), tuple(v))):
            assert vec_add(x, y) == tuple(x[i] + y[i] for i in range(n))
            assert vec_sub(x, y) == tuple(x[i] - y[i] for i in range(n))
            assert vec_neg(x) == tuple(-x[i] for i in range(n))
            assert vec_scale(c, x) == tuple(c * x[i] for i in range(n))
            assert vec_dot(x, y) == sum(x[i] * y[i] for i in range(n))
            assert vec_is_zero(x) == all(x[i] == 0 for i in range(n))
            assert vec_is_zero([0] * n) and vec_is_zero(vec_sub(x, x))
