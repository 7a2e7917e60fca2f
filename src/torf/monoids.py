"""Affine monoids: membership, saturation, stratified monoids and the
lattice machinery of their normalizations.

An AffineMonoid is a finitely generated sub-semigroup of Z^n that always
contains 0 (the unital convention; 0 is implicit and never stored).  The
stratified form trades the generator description for one sublattice per
face of the cone, realized as the disjoint union of each lattice with the
relative interior of its face.  The verdicts and normalizations, of a monoid
too, are in `complexes`.  They read `wn_family`, `stratum_index` and
`realizes`, which compares each irreducible with S's generators up to units;
no membership search."""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from itertools import product, repeat
from math import gcd, prod
from operator import index

from .errors import (
    BadLatticeFamily,
    DimensionMismatch,
    NotAFace,
    NotFiniteExtension,
    WorkTooLarge,
)
from .cones import Cone, cone_from_generators, faces, is_face_of, locate
from .linalg import (
    IntMatrix,
    Sublattice,
    kernel_cols,
    lattice_contains,
    lattice_coords,
    lattice_residue,
    member_lattice,
    saturate,
    smith_columns,
    snf,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_neg,
    vec_scale,
    vec_sub,
)
from .values import value


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # least strong pseudoprime to all of _MR_BASES
MAX_PARALLELEPIPED_POINTS = 10**3  # most cell points one normalization enumerates
MAX_RELATIVE_CANDIDATES = 10**5  # most candidates one relative normalization enumerates


def _is_prime(p):
    """Miller-Rabin to the bases _MR_BASES, which is exact for p < _MR_LIMIT."""
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    d = p - 1
    s = (d & -d).bit_length() - 1  # p - 1 = d 2^s with d odd
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 2**i, p) != p - 1 for i in range(s)):
            return False
    return True


@value(frozen=True)
class Characteristic:
    """Field characteristic: 0 or a prime below _MR_LIMIT.  A float or a
    string is a TypeError."""

    p: int

    def __post_init__(self):
        p = index(self.p)
        if p >= _MR_LIMIT:
            raise ValueError(f"characteristic {p} is too large; primes below "
                             f"{_MR_LIMIT} are supported")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")


@value(frozen=True)
class AffineMonoid:
    """Finitely generated submonoid of Z^n; 0 is always a member."""

    ambient_rank: int
    generators: tuple

    @staticmethod
    def make(ambient_rank, gens):
        clean = set()
        for g in gens:
            g = tuple(map(index, g))
            if len(g) != ambient_rank:
                raise DimensionMismatch("generator length does not match ambient rank")
            if not vec_is_zero(g):
                clean.add(g)
        return AffineMonoid(ambient_rank, tuple(sorted(clean)))


@lru_cache(maxsize=None)
def monoid_gp(s: AffineMonoid) -> Sublattice:
    """The sublattice S - S generated by the generators."""
    return Sublattice.from_generators(s.ambient_rank, list(s.generators))


_GENERATED = {}  # monoid -> its cone, recorded by `generates` and `face_restriction`


@lru_cache(maxsize=None)
def monoid_cone(s: AffineMonoid) -> Cone:
    """The rational cone generated by S: the one recorded for it, if any."""
    return _GENERATED.get(s) or cone_from_generators(s.ambient_rank, list(s.generators))


def generates(s: AffineMonoid, c: Cone) -> bool:
    """Whether cone(S) = c, recorded as S's cone if so.  Exact: every generator
    lies in c, each ray face of c holds one in its relative interior, and those
    in the lineality L generate L (a double description of these units).  A
    recorded cone decides it at once, as cone(S) is unique."""
    if s in _GENERATED:
        return _GENERATED[s] == c
    where = [locate(c, g) for g in s.generators]
    lineality = faces(c)[0]
    if None in where or any(c._face_of_rays[(r,)] not in where for r in c.rays):
        return False
    units = [g for g, f in zip(s.generators, where) if f == lineality]
    if c.lin_basis and cone_from_generators(s.ambient_rank, units) != lineality:
        return False
    _GENERATED[s] = c
    return True


@lru_cache(maxsize=None)
def _unit_split(s: AffineMonoid):
    """Split generators into units (lying in the cone's lineality) and the
    pointed rest; the units generate the invertible-element lattice."""
    c = monoid_cone(s)
    units, rest = [], []
    for g in s.generators:
        if all(vec_dot(a, g) == 0 for a in c.ineqs):
            units.append(g)
        else:
            rest.append(g)
    return Sublattice.from_generators(s.ambient_rank, units), tuple(rest)


_MEMBER_CACHE = {}


def member(s: AffineMonoid, m) -> bool:
    """Exact membership: m is a nonnegative integer combination of generators.

    Iterative depth-first search on m minus one pointed generator at a time,
    grounded in membership of the unit lattice, memoized per monoid.  m is
    tested against the cone and gp(S) once; every later state lies in
    m + gp(S) and enters the search only if the cone contains it.

    A state's children are taken in the order of `_unit_split`'s pointed
    generators, and only the first unknown one is pushed.  When it is
    decided the state is read again: true at its first true child, false
    once every child is known false, else its next unknown child is pushed.
    So a state is decided only from decided children, which is exact (a
    child lies lower on a grading positive on the pointed generators, so the
    search ends), and no sibling of a true child is expanded.  A coordinate
    that is not an integer, such as a float or a string, is a TypeError.
    """
    m = tuple(map(index, m))
    if len(m) != s.ambient_rank:
        raise DimensionMismatch("vector length does not match ambient rank")
    cache = _MEMBER_CACHE.setdefault(s, {})
    if m in cache:
        return cache[m]
    cone = monoid_cone(s)
    if not cone.contains(m) or not member_lattice(monoid_gp(s), m):
        cache[m] = False
        return False
    units, pointed = _unit_split(s)
    contains, in_units = cone.contains, member_lattice
    stack = [m]
    while stack:
        v = stack[-1]
        if in_units(units, v):
            cache[v] = True
        else:
            children = [c for c in map(vec_sub, repeat(v), pointed) if contains(c)]
            known = list(map(cache.get, children))
            if True not in known and None in known:
                stack.append(children[known.index(None)])
                continue
            cache[v] = True in known
        stack.pop()
    return cache[m]


def face_restriction(s: AffineMonoid, t: Cone) -> AffineMonoid:
    """S intersected with a face t of its cone: the monoid on the generators
    lying in t, which generate t, so t is recorded as its cone."""
    if not is_face_of(t, monoid_cone(s)):
        raise NotAFace("restriction target is not a face of the monoid cone")
    r = AffineMonoid.make(s.ambient_rank, [g for g in s.generators if t.contains(g)])
    _GENERATED[r] = t
    return r


# ---------------------------------------------------------------------------
# lattice point machinery: parallelepipeds, Hilbert bases


def _smith_solve(diag, v, ux):
    """For U A V = D, with A of full column rank and D's diagonal `diag`:
    the integer y and q = diag[-1] with A y = q x, given U x for an x in the
    rational span of A.  (A V = U^-1 D, and every d_i divides q.)"""
    q = diag[-1] if diag else 1
    return v.mul_vec(tuple(ux[i] * (q // di) for i, di in enumerate(diag))), q


def _coords_matrix(sup: Sublattice, vectors) -> IntMatrix:
    """The coordinates in sup's basis of vectors of `sup`, as columns."""
    cols = [lattice_coords(sup, v) for v in vectors]
    assert None not in cols, "vector is not in the lattice"
    return IntMatrix.from_cols(cols, nrows=sup.rank)


def _simplices(c: Cone):
    """Maximal simplices (tuples of rays) of a pulling triangulation of c
    modulo its lineality; every face of c has the same lineality, so its rays
    are rays of c."""
    if len(c.rays) == c.dim - c.lin_dim:
        return [c.rays]
    r0 = c.rays[0]
    out = []
    for f in faces(c):
        if f.dim == c.dim - 1 and not f.contains(r0):
            for t in _simplices(f):
                out.append(t + (r0,))
    return out


def _cell_points(cone: Cone, top: Sublattice, r, member_fn, units, what):
    """The candidates of each cell of `cone` for the monoid M that `member_fn`
    decides, as (the r[x], the candidates).  A cell is, for a simplex sigma of
    `_simplices(cone)`, the point r[x] of `top` on each ray x of sigma plus
    `units`, a basis of a full-rank lattice of the lineality.  It holds |det|
    points, one per coset of its span in `top`: with A its coordinates in
    top's basis and U A V = D, U^-1 c for 0 <= c_i < d_i, each moved to A
    times the fractional part of A^-1 U^-1 c = V D^-1 c.  Above
    MAX_PARALLELEPIPED_POINTS in all, WorkTooLarge naming `what` is raised
    before any point is listed.

    Each point p is a candidate, and if p is not in M so is p plus each
    nonempty sum of the r[x] on which p's cell coordinate is 0.  Exactness,
    for M the union of L_F intersect relint F holding the r[x], with the
    lattice of `units` its unit group: an m of M in relint F is its cell
    point p plus sum n_i r_i (n_i >= 0) plus a unit.  If p is not in M, some
    coordinate t_i of m is a positive integer (else p is in the same relint F
    and L_F); p is 0 at each, and p plus the sum of those r_i is a candidate
    in relint F and L_F that m exceeds by r_i's and a unit.  So a saturated
    cone keeps exactly its rays and points, and as only reducible candidates
    (p in M plus a sum) are left out, the extraction keeps the same elements.
    """
    cells = []
    for rs in ([r[x] for x in simplex] for simplex in _simplices(cone)):
        a = _coords_matrix(top, rs + units)
        d, _u, v = snf(a)
        cells.append((rs, a, [d.entry(i, i) for i in range(a.rows)], v))
    count = sum(prod(diag) for _rs, _a, diag, _v in cells)
    if count > MAX_PARALLELEPIPED_POINTS:
        raise WorkTooLarge(f"{what} would list {count} parallelepiped points; the limit is"
                           f" {MAX_PARALLELEPIPED_POINTS}", count)
    in_m = lru_cache(maxsize=None)(member_fn)  # cells share the points of common faces

    def listed(rs, a, y, q):  # p = A times the fractional part of y / q, and its sums
        p = top.basis.mul_vec(tuple(x // q for x in a.mul_vec(tuple(yi % q for yi in y))))
        return [p] if in_m(p) else [vec_add(p, t) for t in _subset_sums(
            len(p), [x for x, yi in zip(rs, y) if yi % q == 0])]
    return [(rs, [x for c in product(*map(range, diag))
                  for x in listed(rs, a, *_smith_solve(diag, v, c))]) for rs, a, diag, v in cells]


def _grading(c: Cone):
    """Covector positive on the pointed part of c and zero on its lineality:
    the sum of its inequalities."""
    return tuple(sum(a[i] for a in c.ineqs) for i in range(c.ambient_rank))


@lru_cache(maxsize=None)
def cone_lattice_generators(c: Cone):
    """Generating set of the monoid Z^n intersect c: a canonical lattice basis
    (with negatives) for the lineality part, plus the Hilbert basis of the
    pointed part.  This is the saturation of any monoid generating c.  Up to
    the units, an irreducible element is a ray or a candidate of a cell of
    c's rays and lineality basis in Z^n intersect span c (`_cell_points`,
    which refuses more than MAX_PARALLELEPIPED_POINTS points)."""
    n, units = c.ambient_rank, list(c.lin_basis)
    top = saturate(Sublattice.from_generators(n, c.generators))
    cells = _cell_points(c, top, dict(zip(c.rays, c.rays)), c.contains, units,
                         f"the Hilbert basis of {c}")
    candidates = set(c.rays).union(*(points for _rs, points in cells))
    return extract_generators(c, c.contains, Sublattice.from_generators(n, units),
                              candidates).generators


def saturation(s: AffineMonoid) -> AffineMonoid:
    """The saturation: all lattice points of the cone of S (Hilbert-basis generators)."""
    return AffineMonoid.make(s.ambient_rank, cone_lattice_generators(monoid_cone(s)))


# ---------------------------------------------------------------------------
# stratified monoids (face-indexed sublattice families)


def check_family(cones, lattice_of):
    """Check a lattice family on face-closed cones in canonical order: each c
    has a stratum of rank dim c in span c containing its facets' strata (as
    nesting is transitive, this is nesting along all faces).  The first failure
    raises BadLatticeFamily at (c, c), or at (f, c) for an unnested facet f."""
    for c in cones:
        lat = lattice_of.get(c)
        if lat is None:
            raise BadLatticeFamily(c, c, "strata must cover every face")
        if any(vec_dot(e, b) for e in c.eqs for b in lat.basis_vectors()):
            raise BadLatticeFamily(c, c, "stratum not inside the face span")
        if lat.rank != c.dim:
            raise BadLatticeFamily(c, c, "stratum does not have finite index")
        for f in faces(c):
            if f.dim == c.dim - 1 and not lattice_contains(lat, lattice_of[f]):
                raise BadLatticeFamily(f, c, "strata are not nested along faces")


@value(frozen=True)
class StratifiedMonoid:
    """Cone plus one sublattice per face; realizes the disjoint union of each
    lattice with the relative interior of its face."""

    cone: Cone
    strata: tuple  # ((face, Sublattice), ...) sorted by face sort key

    @staticmethod
    def make(cone: Cone, lattice_of):
        """Stratum lattice_of[f] on each face f of the cone, by `check_family`."""
        check_family(faces(cone), lattice_of)
        return StratifiedMonoid(cone, tuple((f, lattice_of[f]) for f in faces(cone)))

    @cached_property
    def _table(self):
        return dict(self.strata)

    def lattice_of(self, face: Cone) -> Sublattice:
        try:
            return self._table[face]
        except KeyError:
            raise NotAFace("no stratum for the given face") from None

    def member(self, m) -> bool:
        f = locate(self.cone, m)
        return f is not None and member_lattice(self.lattice_of(f), m)


def _p_saturation(lat: Sublattice, p: int) -> Sublattice:
    """All x in Z^n intersect span(lat) with p^e x in lat for some e >= 0:
    each column of `smith_columns` divided by the p-part of its d_i (p^e
    divides d_i only for e < bit length)."""
    d, cols = smith_columns(lat)
    pparts = [gcd(di, p ** di.bit_length()) for di in d]
    return Sublattice.from_generators(
        lat.ambient_rank, [tuple(x // pe for x in c) for pe, c in zip(pparts, cols)])


def wn_family(family, p: int):
    """The family (face -> stratum) of the weak normalization at p: each distinct
    stratum p-saturated once inside Z^n intersect its span, a valid family."""
    sat = {} if p == 0 else {lat: _p_saturation(lat, p) for lat in set(family.values())}
    return {f: sat.get(lat, lat) for f, lat in family.items()}


@lru_cache(maxsize=None)
def stratum_index(lat: Sublattice) -> int:
    """[Z^n intersect span L : L], the product of the Smith diagonal of L's
    basis: the index in the frame that `wn_family` p-saturates L in, which
    changes L exactly when p divides it."""
    return prod(smith_columns(lat)[0])


# ---------------------------------------------------------------------------
# generator extraction (stratified -> finitely generated)


def box_points(n, bound):
    """All integer vectors of length n with coordinates in [-bound, bound]."""
    return itertools.product(range(-bound, bound + 1), repeat=n)


def _subset_sums(n, vectors):
    """The sums of all subsets of the vectors (the empty sum is 0)."""
    sums = [tuple(0 for _ in range(n))]
    for v in vectors:
        sums += [vec_add(s, v) for s in sums]
    return sums


def _strata_candidates(strat: StratifiedMonoid):
    """A finite set whose members in M, with M's units, generate the realized
    monoid M of `strat`: r_i, the least multiple of ray i in its ray stratum,
    and the candidates of the cells of the r_i and a basis of the minimal
    stratum in the top lattice (`_cell_points`, where exactness is argued)."""
    cone = strat.cone
    units = strat.lattice_of(faces(cone)[0]).basis_vectors()
    r = {}
    for ray in cone.rays:
        line = Sublattice.from_generators(cone.ambient_rank, [ray])
        b = _lattice_intersection(strat.lattice_of(locate(cone, ray)), line).basis_vectors()[0]
        r[ray] = b if cone.contains(b) else vec_neg(b)
    cells = _cell_points(cone, strat.lattice_of(cone), r, strat.member, units,
                         f"the generators of the strata on {cone}")
    return set(r.values()).union(*(xs for _rs, xs in cells))


def _irreducibles(cone: Cone, member_fn, candidates):
    """The non-units that `extract_generators` keeps, yielded as each is kept."""
    ell = _grading(cone)
    in_m = lru_cache(maxsize=None)(member_fn)
    kept = []
    for m in sorted(candidates, key=lambda v: (vec_dot(ell, v), v)):
        if vec_dot(ell, m) and in_m(m) and not any(in_m(vec_sub(m, g)) for g in kept):
            kept.append(m)
            yield m


def extract_generators(cone: Cone, member_fn, group_lattice: Sublattice,
                       candidates) -> AffineMonoid:
    """Greedy minimal generating set of the monoid M decided by `member_fn`: a
    submonoid of Z^n with cone `cone` and unit group `group_lattice`, which
    the members of `candidates` generate together with the units.

    Candidates are taken in grading order (the grading vanishes exactly on
    the units).  A non-unit m of M is kept unless m - g lies in M for some
    non-unit g kept before it: all of M below the grading of m is already
    generated then, so this is the same as m being generated by them."""
    units = [u for b in group_lattice.basis_vectors() for u in (b, vec_neg(b))]
    kept = _irreducibles(cone, member_fn, candidates)
    return AffineMonoid.make(cone.ambient_rank, units + list(kept))


def from_strata(strat: StratifiedMonoid) -> AffineMonoid:
    """Finite generating set of the realized set of a stratified monoid."""
    group = strat.lattice_of(faces(strat.cone)[0])
    return extract_generators(strat.cone, strat.member, group, _strata_candidates(strat))


def realizes(s: AffineMonoid, strat: StratifiedMonoid) -> bool:
    """On S's own family, seminormality: each irreducible g of the monoid M
    that `strat` realizes, as it is kept and up to the first miss, is h + u for
    a pointed generator h of S and u in S's unit lattice U (one residue mod U).
    Sufficiency: L_min = S intersect the lineality is U, a group in S, so
    g = h + u is in S.  Necessity: a g in S that is no single h + u is a sum of
    two non-units of M, so the extraction reduces it against one kept before."""
    units, pointed = _unit_split(s)
    classes = {lattice_residue(units, h) for h in pointed}
    return all(lattice_residue(units, g) in classes
               for g in _irreducibles(strat.cone, strat.member, _strata_candidates(strat)))


# ---------------------------------------------------------------------------
# relative normalizations inside a finite extension


def _lattice_intersection(a: Sublattice, b: Sublattice) -> Sublattice:
    """a ∩ b: each kernel vector (x, y) of [A | -B] gives A x = B y."""
    stacked = IntMatrix.from_cols(a.basis_vectors() + [vec_neg(v) for v in b.basis_vectors()],
                                  nrows=a.ambient_rank)
    return Sublattice.from_generators(
        a.ambient_rank, [a.basis.mul_vec(k[:a.rank]) for k in kernel_cols(stacked).col_list()])


def _relative_candidates(s: AffineMonoid, sp: AffineMonoid, group: Sublattice):
    """A finite set whose members in T, with the units `group` of T, generate
    any T = S' intersect M, where M is stratified and contains S.

    Take r_i, a generator of S in the face of ray i outside the lineality,
    and for each generator g'_j of S' the least c_j >= 1 with c_j g'_j in
    N<r_i : i in sigma> + group for a simplex sigma containing g'_j.  Every t
    in T is e + sum A_i r_i + u with e in E = {sum n_j g'_j : 0 <= n_j < c_j},
    A_i in N and u in group; the candidate e + sum_{A_i > 0} r_i lies in the
    same relint F and in L_F.  WorkTooLarge before E is listed when the
    estimate prod c_j * 2^|rays| is above MAX_RELATIVE_CANDIDATES.
    """
    n = s.ambient_rank
    cone = monoid_cone(s)
    r = {ray: min(g for g in s.generators if locate(cone, g) == locate(cone, ray))
         for ray in cone.rays}
    units = group.basis_vectors()
    bases = []
    for simplex in _simplices(cone):
        d, u, v = snf(IntMatrix.from_cols([r[x] for x in simplex] + units, nrows=n))
        bases.append((len(simplex), [d.entry(i, i) for i in range(d.cols)], u, v))
    c = []
    for g in sp.generators:
        for k, diag, u, v in bases:
            y, q = _smith_solve(diag, v, u.mul_vec(g))  # coordinates y / q
            if all(yi >= 0 for yi in y[:k]):
                break
        else:
            raise AssertionError(f"{g} lies in no simplex of the cone")
        c.append(q // gcd(q, *y))
    estimate = prod(c) << len(r)
    if estimate > MAX_RELATIVE_CANDIDATES:
        raise WorkTooLarge(f"the relative normalization over {cone} would list {estimate}"
                           f" candidates; the limit is {MAX_RELATIVE_CANDIDATES}", estimate)
    spread = {tuple(0 for _ in range(n))}
    for g, cj in zip(sp.generators, c):
        spread = {vec_add(e, vec_scale(j, g)) for e in spread for j in range(cj)}
    sums = _subset_sums(n, list(r.values()))
    return {vec_add(e, t) for e in spread for t in sums}


def relative_extract(s: AffineMonoid, sp: AffineMonoid, strat: StratifiedMonoid) -> AffineMonoid:
    """S' intersect the set that `strat` realizes, for a finite extension S' of
    S and strat a stratified monoid on cone(S) that contains S."""
    if s.ambient_rank != sp.ambient_rank:
        raise DimensionMismatch("ambient ranks differ")
    for g in s.generators:
        if not member(sp, g):
            raise NotFiniteExtension("S is not contained in S'")
    cone = monoid_cone(s)
    for g in sp.generators:
        if not cone.contains(g):
            raise NotFiniteExtension(f"generator {g} of S' has no positive multiple in S")
    minf = faces(cone)[0]
    group = _lattice_intersection(monoid_gp(face_restriction(sp, minf)), strat.lattice_of(minf))

    def member_fn(m):
        return member(sp, m) and strat.member(m)

    return extract_generators(cone, member_fn, group, _relative_candidates(s, sp, group))
