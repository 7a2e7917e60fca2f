"""Rational polyhedral cones and fans, with exact dual descriptions.

A cone is its V side, stored in a canonical form, and equality and hashing
read only that, so equality is structural:

* `rays`: primitive extreme rays, reduced modulo the lineality lattice,
  sorted lexicographically;
* `lin_basis`: canonical HNF basis of the lineality lattice.

Each cone also keeps a complete H-description, which is not part of its
value: the cone is `{x : ineqs >= 0, eqs = 0}`, every covector in `eqs`
vanishes on it and none in `ineqs` does.  It need not be irredundant, and
`eqs` need not be independent; it decides `contains` and `locate`, which any
complete H-description decides the same way.

Each construction runs the double description method (from the full space,
which is exact and handles lineality and implicit equalities) at most once:
`cone_from_generators` for the H-description, `cone_from_h` for the
V-description.  `faces` and `cone_difference` build theirs from the stored
descriptions and run none.  A face keeps its cone's covectors, the
inequalities vanishing on it becoming equations, so building it reduces
nothing: no Hermite or Smith form.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, repeat

from .errors import (
    BadIntersection,
    DimensionMismatch,
    MissingFace,
    NotAFace,
    NotASubfan,
)
from .linalg import (
    IntMatrix,
    Sublattice,
    rank,
    saturate,
    snf,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_neg,
    vec_primitive,
    vec_scale,
    vec_str,
    vec_sub,
)
from .values import value


def dual_rays(n, covectors):
    """V-description of {x in R^n : <a, x> >= 0 for all a}.

    Returns (rays, lineality_basis): the set equals cone(rays) + span(lin),
    with rays extreme modulo the lineality. All vectors primitive integers.
    """
    ineqs = [tuple(a) for a in covectors if not vec_is_zero(tuple(a))]
    lin = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays = []
    processed = []
    for a in ineqs:
        dl = [vec_dot(a, l) for l in lin]
        if any(dl):
            i0 = next(i for i, c in enumerate(dl) if c != 0)
            l0, c0 = lin[i0], dl[i0]
            if c0 < 0:
                l0, c0 = vec_neg(l0), -c0
            lin = [
                vec_primitive(vec_sub(vec_scale(c0, l), vec_scale(vec_dot(a, l), l0)))
                for i, l in enumerate(lin)
                if i != i0
            ]
            rays = [
                vec_primitive(vec_sub(vec_scale(c0, r), vec_scale(vec_dot(a, r), l0)))
                for r in rays
            ]
            rays.append(vec_primitive(l0))
        else:
            vals = {r: vec_dot(a, r) for r in rays}
            plus = [r for r in rays if vals[r] > 0]
            minus = [r for r in rays if vals[r] < 0]
            zero = [r for r in rays if vals[r] == 0]
            new_rays = plus + zero
            if plus and minus:
                tight = {
                    r: frozenset(
                        i for i, b in enumerate(processed) if vec_dot(b, r) == 0
                    )
                    for r in rays
                }
                for rp in plus:
                    for rm in minus:
                        z = tight[rp] & tight[rm]
                        # combinatorial adjacency: no third ray is tight
                        # everywhere rp and rm are both tight
                        if any(
                            z <= tight[r3]
                            for r3 in rays
                            if r3 != rp and r3 != rm
                        ):
                            continue
                        comb = vec_sub(
                            vec_scale(vals[rp], rm), vec_scale(vals[rm], rp)
                        )
                        if not vec_is_zero(comb):
                            new_rays.append(vec_primitive(comb))
            rays = list(dict.fromkeys(new_rays))
        processed.append(a)
    return rays, lin


def _projector(lat: Sublattice):
    """Integer projection Z^n -> Z^n killing a saturated sublattice.

    Built from the Smith form of the basis; the complement is the canonical
    one determined by the (deterministic) SNF transforms.
    """
    n = lat.ambient_rank
    k = lat.rank
    if k == 0:
        return lambda x: tuple(x)
    d, u, v = snf(lat.basis)
    assert all(d.entry(i, i) == 1 for i in range(k)), "projector needs a saturated lattice"
    ev = lat.basis.mul(v)  # n x k, columns: first k columns of U^-1

    def proj(x):
        y = u.mul_vec(tuple(x))
        head = y[:k]
        corr = ev.mul_vec(head)
        return vec_sub(tuple(x), corr)

    return proj


@value(frozen=True)
class Cone:
    """Rational polyhedral cone: its canonical V side, hashable, with structural
    equality.  Only the constructors here build one: they also store `ineqs`
    and `eqs`, the H-description, which is not part of its value."""

    ambient_rank: int
    rays: tuple  # primitive extreme rays mod lineality, sorted
    lin_basis: tuple  # canonical HNF basis of the lineality lattice

    @cached_property
    def dim(self):
        return self.lin_dim + rank(IntMatrix.from_rows(self.rays, ncols=self.ambient_rank))

    @property
    def lin_dim(self):
        return len(self.lin_basis)

    @property
    def generators(self):
        """Integer vectors generating the cone: rays plus +-lineality basis."""
        return list(self.rays) + _pm(self.lin_basis)

    def contains(self, v) -> bool:
        if len(v) != self.ambient_rank:
            raise DimensionMismatch("vector length does not match ambient rank")
        return not any(vec_dot(e, v) for e in self.eqs) and all(
            vec_dot(a, v) >= 0 for a in self.ineqs
        )

    def sort_key(self):
        return (self.dim, self.rays, self.lin_basis)

    @cached_property
    def _face_of_rays(self):
        return {f.rays: f for f in faces(self)}

    def __repr__(self):
        return f"Cone(rank={self.ambient_rank}, rays={self.rays}, lin={self.lin_basis})"

    def __str__(self):
        """The label in reports and error messages: rays, then +- lineality basis."""
        parts = [vec_str(r) for r in self.rays] + ["+-" + vec_str(l) for l in self.lin_basis]
        return "cone[" + "; ".join(parts) + "]" if parts else "cone[0]"


def _pm(vectors):
    return list(vectors) + [vec_neg(v) for v in vectors]


def _with_h(c: Cone, ineqs, eqs) -> Cone:
    """c with the H-description {x : ineqs >= 0, eqs = 0} stored."""
    vars(c).update(ineqs=ineqs, eqs=eqs)
    return c


def _cone(n, gens, covectors) -> Cone:
    """Cone from a complete pair cone(gens) = {x : covectors >= 0}.  The
    generators are reduced to the lineality basis and the rays: the smallest
    face containing v is cut out by the covectors tight at v, so v lies in the
    lineality when every covector is tight, and is extreme when no generator
    has a strictly larger tight set short of all.  The covectors are kept as
    they are: `eqs` vanish on every generator (one of each +- pair), `ineqs`
    are the rest, sorted."""
    tight = [frozenset(i for i, a in enumerate(covectors) if vec_dot(a, v) == 0) for v in gens]
    full = frozenset(range(len(covectors)))
    lat = saturate(Sublattice.from_generators(n, [v for v, t in zip(gens, tight) if t == full]))
    proper = set(tight) - {full}
    proj = _projector(lat)  # applied to the extreme generators only
    rays = tuple(sorted(dict.fromkeys(
        vec_primitive(proj(v)) for v, t in zip(gens, tight)
        if t in proper and not any(t < u for u in proper))))
    flat = full.intersection(*tight)
    ineqs = dict.fromkeys(a for i, a in enumerate(covectors) if i not in flat)
    eqs = dict.fromkeys(max(a, vec_neg(a)) for i, a in enumerate(covectors)
                        if i in flat and not vec_is_zero(a))
    return _with_h(Cone(n, rays, tuple(lat.basis_vectors())), tuple(sorted(ineqs)), tuple(eqs))


def cone_from_generators(n, gens) -> Cone:
    """Cone of nonnegative combinations of the given lattice vectors."""
    clean = []
    for g in gens:
        g = tuple(g)
        if len(g) != n:
            raise DimensionMismatch("generator length does not match ambient rank")
        if not vec_is_zero(g):
            clean.append(g)
    dual_r, dual_l = dual_rays(n, clean)  # V-description of the dual cone
    c = _cone(n, clean, dual_r + _pm(dual_l))
    assert all(c.contains(g) for g in clean), "generator dropped by dual description"
    return c


def cone_from_h(n, ineqs, eqs=()) -> Cone:
    """Cone {x : <a,x> >= 0 for a in ineqs, <e,x> = 0 for e in eqs}, canonicalized."""
    system = [tuple(a) for a in ineqs] + _pm([tuple(e) for e in eqs])
    if any(len(a) != n for a in system):
        raise DimensionMismatch("covector length does not match ambient rank")
    r, l = dual_rays(n, system)
    return _cone(n, r + _pm(l), system)


def locate(c: Cone, m):
    """The face of c holding m in its relative interior, or None when m is not
    in c.  It is read off the inequality values: the face is spanned by the
    rays of c on which every inequality that vanishes at m also vanishes."""
    if len(m) != c.ambient_rank:
        raise DimensionMismatch("vector length does not match ambient rank")
    zero = []
    for a in c.ineqs:
        v = vec_dot(a, m)
        if v < 0:
            return None
        if not v:
            zero.append(a)
    if any(vec_dot(e, m) for e in c.eqs):
        return None
    return c._face_of_rays[tuple(r for r in c.rays if not any(vec_dot(a, r) for a in zero))]


def fan_locate(fan: Fan, m):
    """The cone of the fan holding m in its relative interior, or None when m
    is outside the fan's support: `locate` on each facet until one holds m."""
    return next((f for f in map(locate, fan.facets, repeat(m)) if f is not None), None)


def relint_point(c: Cone):
    """A lattice point in the relative interior (sum of the extreme rays)."""
    pt = (0,) * c.ambient_rank
    for r in c.rays:
        pt = vec_add(pt, r)
    return pt


@lru_cache(maxsize=None)
def faces(c: Cone):
    """All faces of c, its minimal face first and c itself last, canonically
    ordered.  They are the sets of c's rays on which tight subsets of its
    inequalities vanish.  A face keeps c's lineality and covectors, the
    inequalities vanishing on its rays joining the equations, so its
    canonical form and its H-description are read, not reduced."""
    ray_list = list(c.rays)
    zeros = [(a, frozenset(i for i, r in enumerate(ray_list) if not vec_dot(a, r)))
             for a in c.ineqs]
    start = frozenset(range(len(ray_list)))
    seen = {start}
    queue = [start]
    while queue:
        s = queue.pop()
        for _a, z in zeros:
            t = s & z
            if t not in seen:
                seen.add(t)
                queue.append(t)
    out = [c]
    for s in seen - {start}:
        rays = tuple(ray_list[i] for i in sorted(s))
        out.append(_with_h(Cone(c.ambient_rank, rays, c.lin_basis),
                           tuple(a for a, z in zeros if not s <= z),
                           c.eqs + tuple(a for a, z in zeros if s <= z)))
    return tuple(sorted(out, key=Cone.sort_key))


def is_face_of(t: Cone, s: Cone) -> bool:
    if t.ambient_rank != s.ambient_rank:
        raise DimensionMismatch("ambient ranks differ")
    return s._face_of_rays.get(t.rays) == t


def intersect(c1: Cone, c2: Cone) -> Cone:
    if c1.ambient_rank != c2.ambient_rank:
        raise DimensionMismatch("ambient ranks differ")
    return cone_from_h(c1.ambient_rank, c1.ineqs + c2.ineqs, c1.eqs + c2.eqs)


def cone_difference(s: Cone, t: Cone) -> Cone:
    """Cone generated by s together with the negatives of a face t (germ construction)."""
    if not is_face_of(t, s):
        raise NotAFace(f"{t} is not a face of {s}")
    # dual of s + span(t): the face of the dual of s orthogonal to t
    tg = t.generators
    covs = [a for a in s.ineqs if all(vec_dot(a, g) == 0 for g in tg)] + _pm(s.eqs)
    return _cone(s.ambient_rank, s.generators + [vec_neg(g) for g in tg], covs)


@value(frozen=True)
class Fan:
    """Validated fan: face-closed, pairwise intersections are common faces.
    Only `fan_validate` builds one; functions that take a Fan do not recheck it."""

    ambient_rank: int
    cones: tuple  # canonical order
    facets: tuple  # the inclusion-maximal cones, in canonical order

    def __contains__(self, c):
        return c in self.cones

    def __iter__(self):
        return iter(self.cones)

    def __len__(self):
        return len(self.cones)


def _meets_in_face(c1: Cone, c2: Cone) -> bool:
    common = intersect(c1, c2)
    return is_face_of(common, c1) and is_face_of(common, c2)


def _face_poset(n, cones):
    """The cones in canonical order, `above` (the indices of the facets each
    cone is a face of) and the facets; MissingFace if not face-closed.  Only
    the facets, found from the largest cone down, list their faces; a missing
    face is named as the scan over every cone's faces names it."""
    cone_list = sorted(set(cones), key=Cone.sort_key)
    if not cone_list:
        raise MissingFace(None, None)
    for c in cone_list:
        if c.ambient_rank != n:
            raise DimensionMismatch("cone ambient rank does not match fan")
    above = {c: set() for c in cone_list}
    for i in reversed(range(len(cone_list))):
        if not above[cone_list[i]]:  # a face of no facet found so far: a facet
            for f in faces(cone_list[i]):
                if f not in above:
                    raise next(MissingFace(c, g) for c in cone_list for g in faces(c)
                               if g not in above)
                above[f].add(i)
    return cone_list, above, tuple(c for i, c in enumerate(cone_list) if i in above[c])


def fan_validate(n, cones) -> Fan:
    """Check the fan axioms; report violations instead of repairing them.

    A face-closed set of cones is a fan iff its maximal cones meet pairwise in
    common faces (faces of two of them then meet in a face of their common
    face), so only those pairs are intersected.  When one fails, the pair
    reported is the first failing one in canonical order; pairs of faces of one
    listed cone are skipped there, as they meet in a face of it."""
    cone_list, above, facets = _face_poset(n, cones)
    if not all(_meets_in_face(c1, c2) for c1, c2 in combinations(facets, 2)):
        for c1, c2 in combinations(cone_list, 2):
            if not above[c1] & above[c2] and not _meets_in_face(c1, c2):
                raise BadIntersection(c1, c2, witness=relint_point(intersect(c1, c2)))
    return Fan(n, tuple(cone_list), facets)


def face_fan_closure(n, cones) -> Fan:
    """Close the given cones under faces, then validate."""
    return fan_validate(n, {f for c in cones for f in faces(c)})


def subfan(fan: Fan, cones) -> Fan:
    """The face closure of cones of a validated fan, a fan with nothing to intersect.
    A closure off the fan is validated, then NotASubfan names its first cone off it."""
    closure = {f for c in cones for f in faces(c)}
    outside = sorted((c for c in closure if c not in fan), key=Cone.sort_key)
    if outside:
        fan_validate(fan.ambient_rank, closure)
        raise NotASubfan(f"{outside[0]} is not in the complex fan")
    cone_list, _above, facets = _face_poset(fan.ambient_rank, closure)
    return Fan(fan.ambient_rank, tuple(cone_list), facets)


def fan_minimal_cone(f: Fan) -> Cone:
    """Intersection of all cones of the fan (a subspace).  It is a face of
    each, so the unique cone of least dimension, first in canonical order."""
    return f.cones[0]
