"""Reference implementations that tests compare torf against; torf's own
code does not use them.

`hilbert_basis_brute` uses nothing of torf past the cone's stored
inequalities and equations.  `generates_by_dd`, `face_from_scratch` and
`saturated_by_cone` are the constructions that reading a cone's stored form
replaced: a double description of every generator set, every face reduced
afresh, and one Hilbert basis per cone.  `points_by_simplex` and
`hilbert_basis_by_simplex` enumerate a Hilbert basis's parallelepipeds one
saturated simplex span at a time, with no lineality in the cells.  `span_lattice`,
`family_ok` and `realize_cone_by_cone` are the saturated span of a cone, the
lattice-family check on every ordered pair of faces and the realization that
extracts generators on every cone.  `first_missing_face` scans the faces of
every listed cone, not only those of the maximal ones.  `transform_model` moves a model file's
complex by a linear map of Z^n.  `complex_validate_all_pairs` checks the
monoidal complex axioms on every cone and every (face, cone) pair, not only
on the facets and their faces.  `stratify_checked`, `wn_lattice`,
`weak_normalization_checked`, `is_weakly_normal_inline`,
`is_seminormal_complex_facetwise` and `is_weakly_normal_complex_by_lattice`
are the verdicts that reading a complex's own lattice family replaced: each
facet stratified again, every family run through `check_family`, and the
p-saturation written out per stratum.  `saturate_by_kernels`,
`lattice_index` (with `NotASublattice`) and `p_saturation_in` are the
saturation, the index and the p-saturation that one Smith form of a
lattice's basis (`linalg.smith_columns`) replaced: two kernel passes, a
determinant of coordinates, and the Smith form of coordinates in a given
superlattice.  `strata_candidates_blanket` is the candidate rule that
`monoids._cell_points` replaced: every cell point plus every subset sum of
its simplex's r_i, whether or not the point is in the realized monoid.
"""

import itertools
from fractions import Fraction
from math import gcd

from torf.complexes import is_weakly_normal, stratify, weak_normalization
from torf.cones import (
    Cone,
    _cone,
    _pm,
    cone_from_generators,
    faces,
    intersect,
    is_face_of,
    locate,
    relint_point,
)
from torf.errors import (
    CompatibilityFailure,
    ConeNotInFan,
    DimensionMismatch,
    GenerationFailure,
    TorfError,
)
from torf.linalg import (
    IntMatrix,
    Sublattice,
    det,
    kernel_cols,
    lattice_contains,
    lattice_coords,
    member_lattice,
    saturate,
    snf,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_neg,
    vec_scale,
)
from torf.monoids import (
    AffineMonoid,
    Characteristic,
    StratifiedMonoid,
    _simplices,
    _smith_solve,
    _strata_candidates,
    cone_lattice_generators,
    extract_generators,
    face_restriction,
    from_strata,
    generates,
    member,
    monoid_cone,
    monoid_gp,
)


def sn_member_oracle(s: AffineMonoid, m, window=5, search_bound=60) -> bool:
    """Independent seminormalization-membership oracle: look for consecutive
    positive multiples of m inside S, then confirm a run of memberships above
    the resulting conservative bound."""
    m = tuple(int(x) for x in m)
    if len(m) != s.ambient_rank:
        raise DimensionMismatch("vector length does not match ambient rank")
    if window < 1:
        raise ValueError("window must be at least 1")
    if vec_is_zero(m):
        return True
    for a in range(1, search_bound + 1):
        am = tuple(a * x for x in m)
        am1 = vec_add(am, m)
        if member(s, am) and member(s, am1):
            n0 = max(1, a * a - a)
            for n in range(n0, n0 + window + 1):
                assert member(s, tuple(n * x for x in m)), (
                    "consecutive multiples must force a full tail of multiples"
                )
            return True
    return False


def _parallelepiped_points(sup: Sublattice, vectors):
    """Points of `sup` in the half-open parallelepiped of the given independent
    vectors of `sup`, which span a sublattice of full rank; one per coset.

    With A the vectors' coordinates in sup's basis and U A V = D, the points
    U^-1 c for 0 <= c_i < d_i run over the cosets; each one is moved to A
    times the fractional part of A^-1 U^-1 c = V D^-1 c.
    """
    a = IntMatrix.from_cols([lattice_coords(sup, v) for v in vectors], nrows=sup.rank)
    dmat, _u, v = snf(a)
    diag = [dmat.entry(i, i) for i in range(a.rows)]
    reps = []
    for c in itertools.product(*(range(di) for di in diag)):
        y, q = _smith_solve(diag, v, c)
        frac = a.mul_vec(tuple(yi % q for yi in y))
        reps.append(sup.basis.mul_vec(tuple(xi // q for xi in frac)))
    return reps


def strata_candidates_blanket(strat: StratifiedMonoid):
    """With r_i the least positive multiple of ray i in its ray stratum: for
    each simplex sigma of `_simplices`, every point of the cell of sigma's
    r_i and the minimal stratum's basis in the top stratum plus every subset
    sum of sigma's r_i."""
    cone = strat.cone
    units = strat.lattice_of(faces(cone)[0]).basis_vectors()
    r = {}
    for x in cone.rays:
        ray_stratum = strat.lattice_of(locate(cone, x))
        r[x] = next(vec_scale(k, x) for k in itertools.count(1)
                    if member_lattice(ray_stratum, vec_scale(k, x)))
    out = set()
    for rs in ([r[x] for x in simplex] for simplex in _simplices(cone)):
        for p in _parallelepiped_points(strat.lattice_of(cone), rs + units):
            out |= {tuple(map(sum, zip(p, *sub)))
                    for k in range(len(rs) + 1) for sub in itertools.combinations(rs, k)}
    return out


def points_by_simplex(c: Cone):
    """The parallelepiped points of the Hilbert basis of c, one saturated span
    per simplex: for each simplex sigma of `_simplices(c)`, the list of the
    points of Z^n intersect span(sigma) in the half-open parallelepiped of the
    rays of sigma, with no lineality in the cell."""
    return [_parallelepiped_points(saturate(Sublattice.from_generators(c.ambient_rank, s)), s)
            for s in map(list, _simplices(c))]


def hilbert_basis_by_simplex(c: Cone):
    """`cone_lattice_generators(c)` from the points of `points_by_simplex`
    and the rays, with no work budget."""
    lineality = Sublattice.from_generators(c.ambient_rank, list(c.lin_basis))
    candidates = set(c.rays).union(*points_by_simplex(c))
    return extract_generators(c, c.contains, lineality, candidates).generators


def coset_reps(sup: Sublattice, sub: Sublattice):
    """Representatives of sup/sub (equal rank), reduced into the half-open
    fundamental parallelepiped of sub's basis inside sup. Ambient coords."""
    assert sup.rank == sub.rank, "coset enumeration needs equal ranks"
    return _parallelepiped_points(sup, sub.basis_vectors())


def lattice_sum(a: Sublattice, b: Sublattice) -> Sublattice:
    if a.ambient_rank != b.ambient_rank:
        raise DimensionMismatch("ambient ranks differ")
    return Sublattice.from_generators(a.ambient_rank, a.basis_vectors() + b.basis_vectors())


def rational_coords(cols, v):
    """The integer y with sum_j y_j cols[j] = v, or None: Gauss-Jordan over
    the rationals on linearly independent columns, then an integrality test."""
    k = len(cols)
    rows = [[Fraction(c[i]) for c in cols] + [Fraction(x)] for i, x in enumerate(v)]
    r = 0
    for j in range(k):
        piv = next(i for i in range(r, len(rows)) if rows[i][j] != 0)
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                rows[i] = [x - rows[i][j] * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(row[k] != 0 for row in rows[k:]):
        return None  # v is not in the rational span
    y = [rows[j][k] for j in range(k)]
    return tuple(int(x) for x in y) if all(x.denominator == 1 for x in y) else None


def facet_values(cone, v):
    """The values of the inequalities of `cone` at v.  On the lattice points
    of the span of the cone they determine v modulo the lineality.  An
    inequality that is not a facet normal is a nonnegative combination of
    facet normals on that span, so it changes no comparison of value vectors."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in cone.ineqs)


def hilbert_basis_brute(cone, gens):
    """The facet values of the irreducible elements of Z^n intersect `cone`,
    modulo its lineality L, by enumeration.

    `gens` generate the cone.  An irreducible m is congruent modulo L to a
    generator or to a point of sum_g [0, 1) g: write m = sum t_g g with
    t_g >= 0; the rest m - sum floor(t_g) g is a lattice point of the cone, so
    irreducibility leaves it in L (and m congruent to one generator) or leaves
    no generator outside L in the floor sum.  Both lie in the coordinate box
    spanned by the positive and negative parts of `gens`.  m is reducible
    exactly when some lattice point of the cone has facet values below those
    of m, nonzero and not equal to them, and then so does an irreducible one;
    so the classes are the minimal nonzero facet-value vectors of the box
    points in the cone.
    """
    n = cone.ambient_rank
    low = [sum(min(g[i], 0) for g in gens) for i in range(n)]
    high = [sum(max(g[i], 0) for g in gens) for i in range(n)]
    values = set()
    for v in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(low, high))):
        if all(sum(a * x for a, x in zip(e, v)) == 0 for e in cone.eqs):
            fv = facet_values(cone, v)
            if all(x >= 0 for x in fv) and any(fv):
                values.add(fv)
    return {fv for fv in values
            if not any(w != fv and all(a <= b for a, b in zip(w, fv)) for w in values)}


def minors_gcd(vectors):
    """The gcd of the maximal minors of the vectors, taken as rows; 1 exactly
    when they are a basis of the lattice points of their span."""
    k, n = len(vectors), len(vectors[0]) if vectors else 0
    out = 0
    for cols in itertools.combinations(range(n), k):
        det = 0
        for perm in itertools.permutations(range(k)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            term = sign
            for i in range(k):
                term *= vectors[i][cols[perm[i]]]
            det += term
        out = gcd(out, det)
    return out


def normalize_cone_by_cone(x, char=None):
    """The seminormalization of the complex x, or its weak normalization at
    `char`, as cone -> monoid, each cone monoid normalized from its own strata."""
    strata = stratify if char is None else (lambda s: weak_normalization(s, char))
    return {c: from_strata(strata(s)) for c, s in x.assignment}


def is_weakly_normal_facetwise(x, char) -> bool:
    """Weak normality of the complex x at `char`, decided on each facet monoid."""
    return all(is_weakly_normal(x.monoid_of(f), char) for f in x.fan.facets)


def stratify_checked(s: AffineMonoid) -> StratifiedMonoid:
    """The family gp(S intersect F), built through `StratifiedMonoid.make`."""
    c = monoid_cone(s)
    return StratifiedMonoid.make(c, {f: monoid_gp(face_restriction(s, f)) for f in faces(c)})


class NotASublattice(TorfError):
    pass


def saturate_by_kernels(lat: Sublattice) -> Sublattice:
    """Z^n intersect span(lat) as the common kernel of the covectors that
    vanish on lat: two kernel passes."""
    n = lat.ambient_rank
    if lat.rank == 0:
        return lat
    if lat.rank == n:
        return Sublattice.full(n)
    perp = kernel_cols(lat.basis.transpose())  # n x k
    sat = kernel_cols(perp.transpose())  # n x rank
    return Sublattice.from_generators(n, sat.col_list())


def lattice_index(sub: Sublattice, sup: Sublattice):
    """Index [sup : sub] as a positive integer, or None for infinite index:
    the determinant of sub's basis in sup's coordinates.  Raises
    NotASublattice when some basis vector of `sub` is not in `sup`."""
    if sub.ambient_rank != sup.ambient_rank:
        raise DimensionMismatch("ambient ranks differ")
    coords = []
    for v in sub.basis_vectors():
        y = lattice_coords(sup, v)
        if y is None:
            raise NotASublattice(f"{v} is not in the claimed superlattice")
        coords.append(y)
    if sub.rank < sup.rank:
        return None
    return abs(det(IntMatrix.from_cols(coords, nrows=sup.rank)))


def p_saturation_in(sub: Sublattice, sup: Sublattice, p: int) -> Sublattice:
    """All x in sup with p^e x in sub for some e >= 0 (sub of finite index in
    sup), from the Smith form of sub's coordinates in sup's basis."""
    if sub.rank == 0:
        return sub
    d, _u, v = snf(IntMatrix.from_cols([lattice_coords(sup, b) for b in sub.basis_vectors()],
                                       nrows=sup.rank))
    frame = sub.basis.mul(v)  # columns d_i e_i, with e_i a basis of sup
    pparts = [gcd(d.entry(i, i), p ** d.entry(i, i).bit_length()) for i in range(sub.rank)]
    gens = [tuple(x // pe for x in frame.col(i)) for i, pe in enumerate(pparts)]
    return Sublattice.from_generators(sup.ambient_rank, gens)


def wn_lattice(lat: Sublattice, p: int) -> Sublattice:
    """The p-saturation of one stratum inside Z^n intersect its span; `lat`
    itself when p is 0."""
    return lat if p == 0 else p_saturation_in(lat, saturate_by_kernels(lat), p)


def weak_normalization_checked(s: AffineMonoid, char) -> StratifiedMonoid:
    """Each stratum of `stratify_checked(s)` replaced by its `wn_lattice`,
    built through `StratifiedMonoid.make`."""
    sn = stratify_checked(s)
    return StratifiedMonoid.make(sn.cone, {f: wn_lattice(lat, char.p) for f, lat in sn.strata})


def is_weakly_normal_inline(s: AffineMonoid, char) -> bool:
    """Every candidate of `stratify_checked(s)` that it realizes is in S, and
    every stratum is its own `wn_lattice`."""
    sn = stratify_checked(s)
    return (all(member(s, m) for m in _strata_candidates(sn) if sn.member(m))
            and all(wn_lattice(lat, char.p) == lat for _f, lat in sn.strata))


def is_seminormal_complex_facetwise(x) -> bool:
    """Seminormality of the complex x, each facet monoid stratified again."""
    return all(is_weakly_normal_inline(x.monoid_of(f), Characteristic(0)) for f in x.fan.facets)


def is_weakly_normal_complex_by_lattice(x, char) -> bool:
    """Seminormal facet by facet, and every cone's gp(S_c) its own `wn_lattice`."""
    return is_seminormal_complex_facetwise(x) and all(
        wn_lattice(monoid_gp(s), char.p) == monoid_gp(s) for _c, s in x.assignment)


def locate_scan(c: Cone, m):
    """The face of c whose relative interior holds m, by a scan of faces(c)
    with the strict facet inequalities; None when no face holds it."""
    return next((f for f in faces(c) if all(vec_dot(e, m) == 0 for e in f.eqs)
                 and all(vec_dot(a, m) > 0 for a in f.ineqs)), None)


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


def first_missing_face(cones):
    """The first (cone, face) with the face not listed, scanning the faces of
    every listed cone in canonical order; None when the cones are face-closed."""
    cone_list = sorted(set(cones), key=Cone.sort_key)
    return next(((c, f) for c in cone_list for f in faces(c) if f not in cone_list), None)


def generates_by_dd(s: AffineMonoid, c: Cone) -> bool:
    """cone(S) = c, by the double description of all generators of S."""
    return cone_from_generators(s.ambient_rank, list(s.generators)) == c


def face_from_scratch(c: Cone, rays) -> Cone:
    """The face of c spanned by the given rays of c and its lineality, its
    generators reduced afresh against c's covectors and the inequalities
    tight on it."""
    tight = [vec_neg(a) for a in c.ineqs if all(vec_dot(a, r) == 0 for r in rays)]
    return _cone(c.ambient_rank, list(rays) + _pm(c.lin_basis),
                 list(c.ineqs) + _pm(c.eqs) + tight)


def saturated_by_cone(fan):
    """Every cone of the fan with its own saturated monoid."""
    return {c: AffineMonoid.make(fan.ambient_rank, cone_lattice_generators(c)) for c in fan}


def span_lattice(c: Cone) -> Sublattice:
    """Z^n intersect span c, by saturating the cone's generators."""
    return saturate(Sublattice.from_generators(c.ambient_rank, c.generators))


def family_ok(cones, lattice_of) -> bool:
    """Whether the lattice family on the face-closed `cones` is valid: every
    cone has a stratum of rank dim c inside `span_lattice(c)`, and the strata
    are nested on every ordered pair of a face and a cone."""
    for c in cones:
        lat = lattice_of.get(c)
        if lat is None or not lattice_contains(span_lattice(c), lat) or lat.rank != c.dim:
            return False
    return not any(f1 != f2 and is_face_of(f1, f2)
                   and not lattice_contains(lattice_of[f2], lattice_of[f1])
                   for f1, f2 in itertools.product(cones, cones))


def realize_cone_by_cone(fan, family):
    """Every cone of the fan with the monoid extracted from its own strata."""
    return {c: from_strata(StratifiedMonoid.make(c, family)) for c in fan}


def transform_model(doc, u):
    """The model document `doc` (as parsed JSON) with every vector v, in its
    cones, monoid generators and strata, replaced by u v; `u` is a list of
    integer rows.  Vectors are written as decimal strings."""
    def move(vectors):
        return [[str(sum(a * int(x) for a, x in zip(row, v))) for row in u] for v in vectors]

    def move_monoid(spec):
        if spec == "saturated":
            return spec
        if "generators" in spec:
            return {"generators": move(spec["generators"])}
        return {"strata": [{"face": move(s["face"]), "basis": move(s["basis"])}
                           for s in spec["strata"]]}

    out = dict(doc, cones={name: move(gens) for name, gens in doc["cones"].items()})
    if "monoids" in doc:
        out["monoids"] = {name: move_monoid(spec) for name, spec in doc["monoids"].items()}
    return out


def complex_validate_all_pairs(n, fan, monoid_of):
    """The monoidal complex axioms checked on every cone: each monoid
    generates its cone (GenerationFailure, in fan order), and S_tau is
    S_sigma intersect tau on every pair of a proper face tau and a cone sigma
    (CompatibilityFailure, sigma in fan order).  Returns the assignment in
    canonical order."""
    table = {}
    for c in fan:
        if c not in monoid_of:
            raise ConeNotInFan(f"no monoid assigned to cone {c}")
        s = monoid_of[c]
        if s.ambient_rank != n:
            raise DimensionMismatch("monoid ambient rank does not match the fan")
        if not generates(s, c):
            raise GenerationFailure(c)
        table[c] = s
    for sig in fan:
        for tau in faces(sig)[:-1]:
            st, ss = table[tau], table[sig]
            if st.generators == tuple(g for g in ss.generators if tau.contains(g)):
                continue
            for g in st.generators:
                if not member(ss, g):
                    raise CompatibilityFailure(tau, sig, g)
            for g in ss.generators:
                if tau.contains(g) and not member(st, g):
                    raise CompatibilityFailure(tau, sig, g)
    return tuple(sorted(table.items(), key=lambda kv: kv[0].sort_key()))
