"""Monoidal complexes and the combinatorics of their face rings.

A monoidal complex is a fan together with one affine monoid per cone,
compatible along faces.  The associated ring has one basis element per
support degree, with the truncated multiplication rule: a product of two
monomials survives exactly when both degrees live in a common cone monoid.

Each verdict and normalization has one body here, on the lattice family
`classify(x)`, with characteristic 0 as p = 0.  An affine monoid S is its
one-facet complex, on the face fan of cone(S) (`complex_from_monoid_subfan`).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import index

from .errors import (
    CompatibilityFailure,
    ConeNotInFan,
    DegreeNotInSupport,
    DimensionMismatch,
    GenerationFailure,
    NotASubfan,
    TorfError,
    WorkTooLarge,
)
from .cones import (
    Cone,
    Fan,
    cone_difference,
    face_fan_closure,
    fan_locate,
    fan_minimal_cone,
    fan_validate,
    faces,
    is_face_of,
)
from .linalg import vec_add, vec_neg
from .monoids import (
    AffineMonoid,
    Characteristic,
    StratifiedMonoid,
    box_points,
    check_family,
    cone_lattice_generators,
    face_restriction,
    from_strata,
    generates,
    member,
    monoid_cone,
    monoid_gp,
    realizes,
    relative_extract,
    stratum_index,
    wn_family,
)
from .values import value

@value(frozen=True)
class MonoidalComplex:
    """Fan with one affine monoid per cone, compatible along faces."""

    ambient_rank: int
    fan: Fan
    assignment: tuple  # ((cone, AffineMonoid), ...) in canonical cone order

    @cached_property
    def _table(self):
        return dict(self.assignment)

    def monoid_of(self, c: Cone) -> AffineMonoid:
        try:
            return self._table[c]
        except KeyError:
            raise ConeNotInFan(f"cone not in the complex fan: {c}") from None

    def cones(self):
        return [cone for cone, _s in self.assignment]


def complex_validate(n, fan: Fan, monoid_of) -> MonoidalComplex:
    """Check the monoid axioms over a fan (validated when it was built) and
    return the validated complex.

    The axioms are checked on the facets, which decide every cone: each
    facet's monoid S_f generates f, and each proper face tau of f has
    S_tau = S_f intersect tau, the `face_restriction` of S_f, which generates
    tau.  So only the facets need a monoid in `monoid_of` (ConeNotInFan
    otherwise); a face without one takes the restriction of its first facet,
    in `fan.facets` order.  A face monoid that differs from a restriction is
    reported with the first of its generators and the restriction's that is
    not in both, so a face monoid not generating its face is a
    CompatibilityFailure at (face, facet).
    """
    facets = set(fan.facets)
    for c in fan:
        if c not in monoid_of:
            if c in facets:
                raise ConeNotInFan(f"no monoid assigned to cone {c}")
        elif monoid_of[c].ambient_rank != n:
            raise DimensionMismatch("monoid ambient rank does not match the fan")
        elif c in facets and not generates(monoid_of[c], c):
            raise GenerationFailure(c)
    table = dict(monoid_of)
    for f in fan.facets:
        for tau in faces(f)[:-1]:
            r = face_restriction(table[f], tau)
            st = table.setdefault(tau, r)
            if st != r:
                for g in st.generators + r.generators:
                    if not (member(r, g) and member(st, g)):
                        raise CompatibilityFailure(tau, f, g)
    return MonoidalComplex(n, fan, tuple((c, table[c]) for c in fan))


def full_complex(fan: Fan) -> MonoidalComplex:
    """Every cone with its saturated monoid: a facet's Hilbert basis, in the cone."""
    n = fan.ambient_rank
    return complex_validate(n, fan, {
        f: AffineMonoid.make(n, cone_lattice_generators(f)) for f in fan.facets})


def complex_from_monoid_subfan(s: AffineMonoid, subfan: Fan = None) -> MonoidalComplex:
    """Restrict a single monoid to a subfan of its cone's face fan, by default
    the whole face fan: S as its one-facet complex."""
    big = monoid_cone(s)
    if subfan is None:
        subfan = face_fan_closure(s.ambient_rank, [big])
    for c in subfan:
        if not is_face_of(c, big):
            raise NotASubfan(f"cone {c} is not a face of the monoid cone")
    return complex_validate(subfan.ambient_rank, subfan,
                            {f: face_restriction(s, f) for f in subfan.facets})


def support_locate(x: MonoidalComplex, m):
    """The unique fan cone with m in its relative interior and m in its monoid,
    or None when m is outside the support."""
    m = tuple(map(index, m))
    f = fan_locate(x.fan, m)
    return f if f is not None and member(x.monoid_of(f), m) else None


def in_support(x: MonoidalComplex, m) -> bool:
    return support_locate(x, m) is not None


def support_box(x: MonoidalComplex, bound):
    """Each support degree with coordinates in [-bound, bound], in box order,
    mapped to the fan cone whose relative interior holds it."""
    located = ((tuple(v), support_locate(x, v)) for v in box_points(x.ambient_rank, bound))
    return {m: c for m, c in located if c is not None}


# ---------------------------------------------------------------------------
# ring arithmetic


@value(frozen=True)
class RingElem:
    """Finite rational linear combination of monomials chi^m, m in the support."""

    terms: tuple  # ((m, Fraction), ...) sorted by m, no zero coefficients

    @staticmethod
    def make(x: MonoidalComplex, mapping) -> "RingElem":
        from fractions import Fraction  # not needed at start-up

        clean = {}
        for m, c in dict(mapping).items():
            m = tuple(map(index, m))
            c = Fraction(c)
            if c == 0:
                continue
            if not in_support(x, m):
                raise DegreeNotInSupport(f"degree {m} is not in the support")
            clean[m] = clean.get(m, 0) + c
        return RingElem(tuple(sorted((m, c) for m, c in clean.items() if c != 0)))

    @staticmethod
    def zero() -> "RingElem":
        return RingElem(())


def degrees_multiply(x: MonoidalComplex, m1, m2) -> bool:
    """Whether chi^m1 * chi^m2 is nonzero: both degrees lie in a common cone
    monoid, detected through the fan (some facet has both locating cones as faces)."""
    c1 = support_locate(x, m1)
    c2 = support_locate(x, m2)
    if c1 is None or c2 is None:
        return False
    return any(is_face_of(c1, c) and is_face_of(c2, c) for c in x.fan.facets)


def ring_mult(x: MonoidalComplex, a: RingElem, b: RingElem) -> RingElem:
    acc = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            if degrees_multiply(x, m1, m2):
                m = vec_add(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
    return RingElem(tuple(sorted((m, c) for m, c in acc.items() if c != 0)))


# ---------------------------------------------------------------------------
# orbits, subcomplexes, components


@value(frozen=True)
class OrbitTable:
    rows: tuple  # ((cone, Sublattice, is_facet, is_closed), ...)


def orbits(x: MonoidalComplex) -> OrbitTable:
    minimal = fan_minimal_cone(x.fan)
    rows = tuple(
        (c, monoid_gp(s), c in x.fan.facets, c == minimal) for c, s in x.assignment
    )
    return OrbitTable(rows)


def check_subfan(x: MonoidalComplex, subfan: Fan):
    if subfan.ambient_rank != x.ambient_rank:
        raise NotASubfan("ambient rank mismatch")
    for c in subfan:
        if c not in x.fan:
            raise NotASubfan(f"{c} is not in the complex fan")


def subcomplex(x: MonoidalComplex, subfan: Fan) -> MonoidalComplex:
    """Restriction of x to a subfan; the axioms hold on it as they do on x."""
    check_subfan(x, subfan)
    return MonoidalComplex(x.ambient_rank, subfan, tuple((c, x.monoid_of(c)) for c in subfan))


def components(x: MonoidalComplex):
    """Irreducible components: the subcomplex over each facet's face closure."""
    return [subcomplex(x, face_fan_closure(x.ambient_rank, [f])) for f in x.fan.facets]


# ---------------------------------------------------------------------------
# normalization and classification, of a complex and of a monoid as its one-facet complex


def sn_complex(x: MonoidalComplex) -> MonoidalComplex:
    """Seminormalization: the weak normalization at p = 0, realizing the family of x."""
    return wn_complex(x, Characteristic(0))


def wn_complex(x: MonoidalComplex, char: Characteristic) -> MonoidalComplex:
    """Weak normalization: the complex that realizes the p-saturated family
    (by face compatibility, gp(S_sigma intersect F) = gp(S_F) on each face F)."""
    return _realize(x.fan, wn_family(classify(x), char.p))


@lru_cache(maxsize=None)
def is_seminormal_complex(x: MonoidalComplex) -> bool:
    """Each facet monoid `realizes` its strata gp(S_f intersect F) in `classify(x)`."""
    return all(realizes(x.monoid_of(f), st) for f, st in _facet_strata(x.fan, classify(x)).items())


def is_weakly_normal_complex(x: MonoidalComplex, char: Characteristic) -> bool:
    """Seminormal, and its family is its own `wn_family`: p divides no `stratum_index`."""
    return is_seminormal_complex(x) and all(
        char.p == 0 or stratum_index(lat) % char.p for lat in classify(x).values())


def classify(x: MonoidalComplex):
    """The face-indexed sublattice family: cone -> gp of its monoid."""
    return {c: monoid_gp(s) for c, s in x.assignment}


def _facet_strata(fan: Fan, family):
    """Each facet's stratified monoid in a lattice family of the fan."""
    return {f: StratifiedMonoid(f, tuple((c, family[c]) for c in faces(f))) for f in fan.facets}


def _realize(fan: Fan, family) -> MonoidalComplex:
    """The complex realizing a valid family on its facets, the faces taking
    restrictions.  WorkTooLarge passes; a realized complex failing validation
    is a broken postcondition, not bad input: an AssertionError."""
    try:
        return complex_validate(fan.ambient_rank, fan, {
            f: from_strata(st) for f, st in _facet_strata(fan, family).items()})
    except WorkTooLarge:
        raise
    except TorfError as e:
        raise AssertionError(f"computed complex fails validation: {e}") from e


def complex_from_lattice_family(fan: Fan, family) -> MonoidalComplex:
    """Inverse of classify on seminormal complexes, for a family from outside."""
    check_family(fan, family)
    return _realize(fan, family)


def weak_normalization(s: AffineMonoid, char: Characteristic) -> StratifiedMonoid:
    """The family of S's one-facet complex, p-saturated by `wn_family`."""
    x = complex_from_monoid_subfan(s)
    return _facet_strata(x.fan, wn_family(classify(x), char.p))[monoid_cone(s)]


def stratify(s: AffineMonoid) -> StratifiedMonoid:
    """The family gp(S intersect F) on the faces F of cone(S): weak normalization at p = 0."""
    return weak_normalization(s, Characteristic(0))


seminormalization = stratify


def is_weakly_normal(s: AffineMonoid, char: Characteristic) -> bool:
    """Whether S's one-facet complex is weakly normal at p."""
    return is_weakly_normal_complex(complex_from_monoid_subfan(s), char)


def is_seminormal(s: AffineMonoid) -> bool:
    """S equals its seminormalization: weakly normal at p = 0."""
    return is_weakly_normal(s, Characteristic(0))


def relative_wn(s: AffineMonoid, sp: AffineMonoid, char: Characteristic) -> AffineMonoid:
    """Weak normalization of S inside a finite extension S'."""
    return relative_extract(s, sp, weak_normalization(s, char))


def relative_sn(s: AffineMonoid, sp: AffineMonoid) -> AffineMonoid:
    """Seminormalization of S inside a finite extension S': p = 0."""
    return relative_wn(s, sp, Characteristic(0))


# ---------------------------------------------------------------------------
# germs


def germ_at(x: MonoidalComplex, t: Cone) -> MonoidalComplex:
    """Localization at the orbit of t: the star fan with monoids S_sigma - S_t."""
    if t not in x.fan:
        raise ConeNotInFan(f"cone not in the complex fan: {t}")
    n = x.ambient_rank
    st = x.monoid_of(t)
    neg = [vec_neg(g) for g in st.generators]
    table = {}
    for c, s in x.assignment:
        if not is_face_of(t, c):
            continue
        diff = cone_difference(c, t)
        assert diff not in table, "star correspondence must be one to one"
        table[diff] = AffineMonoid.make(n, list(s.generators) + neg)
    return complex_validate(n, fan_validate(n, table), table)
