"""h-differential forms on toric face rings and exact Betti numbers.

The module A^p of a weakly normal complex splits over support degrees m into
finite pieces chi^m wedge^p V_m, where V_m is spanned by the stratum lattice
gp(S_c) of the cone c holding m in its relative interior.  On a seminormal
complex S_c and gp(S_c) meet relint c alike (Bruns-Li-Roemer), so both are read
off the lattice family.  The differential alpha(m) wedge - is exact unless m = 0."""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from operator import index

from .errors import DegreeNotInSupport, NotWeaklyNormal
from .cones import Cone, Fan, fan_locate, fan_minimal_cone
from .complexes import MonoidalComplex, check_subfan, classify, is_seminormal_complex
from .linalg import IntMatrix, lattice_coords, rank
from .monoids import box_points
from .values import value


@value(frozen=True)
class FormSpace:
    """The rational span of the stratum lattice at a support degree."""

    degree: tuple
    cone: Cone
    basis: tuple  # canonical lattice basis columns of gp(S_{sigma_m})

    @property
    def dim(self):
        return len(self.basis)


@value(frozen=True)
class GradedForm:
    """Finite sum of terms chi^m eta_m with eta_m a p-multivector at m.

    Coordinates are exact rationals in the lexicographic wedge basis of the
    FormSpace at each degree; zero multivectors are never stored.
    """

    p: int
    terms: tuple  # ((m, coords tuple of Fraction), ...) sorted by m


@value(frozen=True)
class FiberComplex:
    """Koszul complex (wedge^* V_m, alpha(m) wedge -) at one degree."""

    degree: tuple
    dim: int
    matrices: tuple  # matrices[p]: wedge^p -> wedge^{p+1}, IntMatrix


@value(frozen=True)
class BettiTable:
    dims: tuple
    mode: str


def _require_weakly_normal(x: MonoidalComplex):
    """In characteristic 0, weak normality is seminormality."""
    if not is_seminormal_complex(x):
        raise NotWeaklyNormal(
            "complex is not weakly normal; `torf forms` reports the forms of its"
            " weak normalization"
        )


def _sn_support(x: MonoidalComplex, degrees):
    """The support degrees of the seminormalization of x among `degrees`, each
    mapped to the fan cone c locating it: those m in gp(S_c)."""
    family = classify(x)
    located = {}
    for m in degrees:
        c = fan_locate(x.fan, m)
        if c is not None and lattice_coords(family[c], m) is not None:
            located[m] = c
    return located


def fiber_space(x: MonoidalComplex, m) -> FormSpace:
    """The form space V_m at a support degree.  A coordinate that is not an
    integer, such as a float or a string, is a TypeError."""
    _require_weakly_normal(x)
    m = tuple(map(index, m))
    c = _sn_support(x, [m]).get(m)
    if c is None:
        raise DegreeNotInSupport(f"degree {m} is not in the support")
    return FormSpace(m, c, tuple(classify(x)[c].basis_vectors()))


def alpha(x: MonoidalComplex, m):
    """Integer coordinates of m in the canonical basis of V_m."""
    fs = fiber_space(x, m)
    return lattice_coords(classify(x)[fs.cone], fs.degree)


def wedge_basis(dim, p):
    """Lexicographically ordered p-subsets of basis indices."""
    return list(itertools.combinations(range(dim), p))


def _wedge_map(a, dim, p) -> IntMatrix:
    """Matrix of (a wedge -): wedge^p -> wedge^{p+1} in lexicographic bases."""
    dom = wedge_basis(dim, p)
    cod = wedge_basis(dim, p + 1)
    pos = {t: i for i, t in enumerate(cod)}
    rows = [[0] * len(dom) for _ in cod]
    for j, t in enumerate(dom):
        for i in range(dim):
            if i in t:
                continue
            sign = (-1) ** sum(1 for s in t if s < i)
            u = tuple(sorted(t + (i,)))
            rows[pos[u]][j] += sign * a[i]
    return IntMatrix.from_rows(rows, ncols=len(dom))


@lru_cache(maxsize=None)
def _fiber_complex(x: MonoidalComplex, m) -> FiberComplex:
    a = alpha(x, m)
    d = len(a)
    return FiberComplex(m, d, tuple(_wedge_map(a, d, p) for p in range(d)))


def fiber_complex(x: MonoidalComplex, m) -> FiberComplex:
    """The Koszul complex at degree m, memoized.  The coordinates are read as
    integers before the memo is consulted, so 1.0 is a TypeError even where
    the equal key 1 is cached."""
    return _fiber_complex(x, tuple(map(index, m)))


fiber_complex.cache_info = _fiber_complex.cache_info  # the benchmark's hit ratio


def fiber_cohomology(fc: FiberComplex):
    """Exact cohomology dimensions h^0..h^dim of the Koszul fiber."""
    d = fc.dim
    ranks = [rank(mat) for mat in fc.matrices]
    dims = []
    for p in range(d + 1):
        h = comb(d, p)
        if p < d:
            h -= ranks[p]
        if p > 0:
            h -= ranks[p - 1]
        dims.append(h)
    return dims


# ---------------------------------------------------------------------------
# graded forms


def differential(x: MonoidalComplex, w: GradedForm) -> GradedForm:
    """Termwise alpha(m) wedge -, preserving each degree m."""
    out = []
    for m, coords in w.terms:
        fc = fiber_complex(x, m)
        if w.p >= fc.dim:
            continue
        new = fc.matrices[w.p].mul_vec(coords)
        if any(new):
            out.append((m, new))
    return GradedForm(w.p + 1, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# pairs and Betti numbers


def betti(x: MonoidalComplex, pair_subfan=None, box_bound=4, theoretical=False) -> BettiTable:
    """Betti numbers of the affine model from the global de Rham complex.

    The Koszul fiber at m is exact unless alpha(m) = 0, that is m = 0, which
    lies in every box and in the minimal cone c0: there H^p = wedge^p gp(S_c0).
    So box mode equals theoretical mode.  With a pair, a degree of |X| counts
    when its cone is outside the subfan: Y carries X's monoids on its cones.
    """
    _require_weakly_normal(x)
    if pair_subfan is not None:
        check_subfan(x, pair_subfan)
    c0 = fan_minimal_cone(x.fan)
    counted = c0 not in (pair_subfan or ())
    dims = tuple(comb(c0.dim, p) if counted else 0 for p in range(x.ambient_rank + 1))
    return BettiTable(dims, "theoretical" if theoretical else f"box-truncated({box_bound})")


def pair_dims(x: MonoidalComplex, subfan: Fan, p, box_bound):
    """Per-degree dimension of the A^p(X, Y) fiber over a box, and the same
    dimensions grouped by the cone outside the subfan whose orbit holds each
    degree.  The fiber at m is wedge^p of gp(S_c), whose rank is dim c.

    Returns (per_degree, decomposition).
    """
    _require_weakly_normal(x)
    check_subfan(x, subfan)
    decomposition = {c: {} for c in x.cones() if c not in subfan}
    per_degree = {}
    for m, c in _sn_support(x, box_points(x.ambient_rank, box_bound)).items():
        if c in decomposition:
            per_degree[m] = decomposition[c][m] = comb(c.dim, p)
    return per_degree, decomposition


def hdiff_general(x: MonoidalComplex, p, box_bound):
    """Per-degree h-differential dimensions of a possibly non-weakly-normal
    complex, computed on its characteristic-zero weak normalization, which is
    its seminormalization, whose support is read off the lattice family of x."""
    located = _sn_support(x, box_points(x.ambient_rank, box_bound))
    return {m: comb(c.dim, p) for m, c in located.items()}
