"""Monoidal complexes and the combinatorics of their face rings.

A monoidal complex is a fan together with one affine monoid per cone,
compatible along faces.  The associated ring has one basis element per
support degree, with the truncated multiplication rule: a product of two
monomials survives exactly when both degrees live in a common cone monoid.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

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
    is_seminormal,
    member,
    monoid_cone,
    monoid_gp,
    wn_lattice,
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

    Generation: each monoid generates exactly its assigned cone.  Face
    compatibility S_tau = S_sigma `intersect` tau is checked exactly on
    generators: S_sigma intersect tau is generated by the generators of
    S_sigma lying in the face tau, so it holds when those are S_tau's.
    """
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
    assignment = tuple(sorted(table.items(), key=lambda kv: kv[0].sort_key()))
    return MonoidalComplex(n, fan, assignment)


def _from_facets(fan: Fan, generators_of) -> MonoidalComplex:
    """The complex giving each facet f the monoid on generators_of(f), and each
    face the generators inside it of the first facet above it; validated."""
    n = fan.ambient_rank
    table = {}
    for f in fan.facets:
        gens = generators_of(f)
        for c in faces(f):
            if c not in table:
                table[c] = AffineMonoid.make(n, [g for g in gens if c.contains(g)])
    return complex_validate(n, fan, table)


def full_complex(fan: Fan) -> MonoidalComplex:
    """Every cone with its saturated monoid: a facet's Hilbert basis, in the cone."""
    return _from_facets(fan, cone_lattice_generators)


def complex_from_monoid_subfan(s: AffineMonoid, subfan: Fan) -> MonoidalComplex:
    """Restrict a single monoid to a subfan of its cone's face fan."""
    big = monoid_cone(s)
    for c in subfan:
        if not is_face_of(c, big):
            raise NotASubfan(f"cone {c} is not a face of the monoid cone")
    return _from_facets(subfan, lambda f: face_restriction(s, f).generators)


def support_locate(x: MonoidalComplex, m):
    """The unique fan cone with m in its relative interior and m in its monoid,
    or None when m is outside the support."""
    m = tuple(int(v) for v in m)
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
            m = tuple(int(v) for v in m)
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


def ring_add(a: RingElem, b: RingElem) -> RingElem:
    acc = {}
    for m, c in a.terms + b.terms:
        acc[m] = acc.get(m, 0) + c
    return RingElem(tuple(sorted((m, c) for m, c in acc.items() if c != 0)))


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


def ring_restrict(x: MonoidalComplex, y: MonoidalComplex, a: RingElem) -> RingElem:
    """Quotient map onto the subcomplex ring: kill degrees outside the sub-support."""
    return RingElem(tuple((m, c) for m, c in a.terms if in_support(y, m)))


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
# complex-level normalization and classification


def sn_complex(x: MonoidalComplex) -> MonoidalComplex:
    """Seminormalization: the complex that realizes the lattice family of x
    (by face compatibility, gp(S_sigma intersect F) = gp(S_F) on each face F)."""
    return complex_from_lattice_family(x.fan, classify(x))


@lru_cache(maxsize=None)
def _wn_family(x: MonoidalComplex, char: Characteristic):
    """The lattice family of the weak normalization of x (read only: memoized,
    so that a complex and its verdict p-saturate each stratum once)."""
    return {c: wn_lattice(lat, char.p) for c, lat in classify(x).items()}


def wn_complex(x: MonoidalComplex, char: Characteristic) -> MonoidalComplex:
    """Weak normalization: the complex that realizes the p-saturated family."""
    return complex_from_lattice_family(x.fan, _wn_family(x, char))


@lru_cache(maxsize=None)
def is_seminormal_complex(x: MonoidalComplex) -> bool:
    """Facet-wise seminormality of the cone monoids."""
    return all(is_seminormal(x.monoid_of(f)) for f in x.fan.facets)


def is_weakly_normal_complex(x: MonoidalComplex, char: Characteristic) -> bool:
    """Seminormal, and every lattice of the family is its own p-saturation."""
    return is_seminormal_complex(x) and _wn_family(x, char) == classify(x)


def classify(x: MonoidalComplex):
    """The face-indexed sublattice family: cone -> gp of its monoid."""
    return {c: monoid_gp(s) for c, s in x.assignment}


def complex_from_lattice_family(fan: Fan, family) -> MonoidalComplex:
    """Inverse of classify on seminormal complexes: `check_family` checks the
    family once, then each facet's stratified monoid is realized and its faces
    take its generators.  A realization too large to list is refused
    (WorkTooLarge); the realized complex failing validation is a broken
    postcondition, not bad input: an AssertionError."""
    check_family(fan, family)
    try:
        return _from_facets(fan, lambda f: from_strata(
            StratifiedMonoid(f, tuple((c, family[c]) for c in faces(f)))).generators)
    except WorkTooLarge:
        raise
    except TorfError as e:
        raise AssertionError(f"computed complex fails validation: {e}") from e


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
