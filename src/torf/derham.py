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

from .errors import (
    ConeNotInFan,
    DegreeNotInSupport,
    NotWeaklyNormal,
)
from .cones import Cone, Fan, fan_locate, fan_minimal_cone, is_face_of
from .complexes import MonoidalComplex, check_subfan, classify, is_seminormal_complex
from .linalg import IntMatrix, det, lattice_coords, rank, vec_add
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
    """The form space V_m at a support degree."""
    _require_weakly_normal(x)
    m = tuple(int(v) for v in m)
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
def fiber_complex(x: MonoidalComplex, m) -> FiberComplex:
    a = alpha(x, m)
    d = len(a)
    return FiberComplex(tuple(m), d, tuple(_wedge_map(a, d, p) for p in range(d)))


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


def make_form(x: MonoidalComplex, p, mapping) -> GradedForm:
    """Build a GradedForm from {degree: coordinate tuple}, validating shapes."""
    from fractions import Fraction  # not needed at start-up
    clean = []
    for m, coords in dict(mapping).items():
        m = tuple(int(v) for v in m)
        fs = fiber_space(x, m)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != comb(fs.dim, p):
            raise ValueError(
                f"multivector at {m} must have {comb(fs.dim, p)} coordinates"
            )
        if any(c != 0 for c in coords):
            clean.append((m, coords))
    return GradedForm(p, tuple(sorted(clean)))


def form_add(a: GradedForm, b: GradedForm) -> GradedForm:
    assert a.p == b.p
    acc = {}
    for m, coords in a.terms + b.terms:
        if m in acc:
            acc[m] = vec_add(acc[m], coords)
        else:
            acc[m] = coords
    terms = tuple(sorted((m, c) for m, c in acc.items() if any(c)))
    return GradedForm(a.p, terms)


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


def _inclusion_matrix(x: MonoidalComplex, m_small, m_big) -> IntMatrix:
    """Coordinates of V_{m_small}'s basis inside V_{m_big}'s basis."""
    fs = fiber_space(x, m_small)
    fb = fiber_space(x, m_big)
    big = classify(x)[fb.cone]
    cols = [lattice_coords(big, v) for v in fs.basis]
    assert None not in cols, "stratum lattices must be nested along multiplication"
    return IntMatrix.from_cols(cols, nrows=fb.dim)


def _wedge_power(mat: IntMatrix, p) -> IntMatrix:
    """p-th exterior power in lexicographic wedge bases (minors)."""
    dom = wedge_basis(mat.cols, p)
    cod = wedge_basis(mat.rows, p)
    rows = []
    for u in cod:
        row = []
        for t in dom:
            minor = IntMatrix.from_rows(
                [[mat.entry(i, j) for j in t] for i in u], ncols=p
            )
            row.append(det(minor) if p > 0 else 1)
        rows.append(row)
    return IntMatrix.from_rows(rows, ncols=len(dom))


def module_action(x: MonoidalComplex, mp, w: GradedForm) -> GradedForm:
    """Multiplication by chi^{mp}: shift surviving terms and include multivectors.
    A term survives when some facet has the cones of mp and of its degree as faces."""
    _require_weakly_normal(x)
    mp = tuple(int(v) for v in mp)
    located = _sn_support(x, [mp] + [m for m, _ in w.terms])
    if mp not in located:
        raise DegreeNotInSupport(f"degree {mp} is not in the support")
    cp = located[mp]
    acc = {}
    for m, coords in w.terms:
        c = located.get(m)
        if c is None or not any(is_face_of(cp, f) and is_face_of(c, f) for f in x.fan.facets):
            continue
        m2 = vec_add(m, mp)
        new = _wedge_power(_inclusion_matrix(x, m, m2), w.p).mul_vec(coords)
        if m2 in acc:
            new = vec_add(acc[m2], new)
        acc[m2] = new
    terms = tuple(sorted((m, c) for m, c in acc.items() if any(c)))
    return GradedForm(w.p, terms)


def restrict(x: MonoidalComplex, w: GradedForm, t: Cone) -> GradedForm:
    """Combinatorial restriction to the closed subvariety at t: keep m in t."""
    if t not in x.fan:
        raise ConeNotInFan(f"cone not in the complex fan: {t}")
    return GradedForm(w.p, tuple((m, c) for m, c in w.terms if t.contains(m)))


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
