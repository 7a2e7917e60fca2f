"""Known answers for the benchmark, written without torf.

Every closed form here is checked against brute-force enumeration on a
small grid by `self_check()`, so that a wrong oracle shows up as a benchmark
error instead of a wrong failure count.  Nothing in this module imports torf.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

# ---------------------------------------------------------------------------
# closed forms


def ab_seminormal(a, b):
    """<a,b> in N is seminormal iff a | b or b | a."""
    return b % a == 0 or a % b == 0


def ab_weakly_normal(a, b, p):
    """A seminormal <a,b> is gcd(a,b)N; it is weakly normal at p iff p does
    not divide gcd(a,b) (the relative_wn rule below, applied to <g> in N)."""
    return ab_seminormal(a, b) and (p == 0 or gcd(a, b) % p != 0)


def ab_member(a, b, n):
    """n in <a,b>: with g = gcd(a,b) and a', b', n' divided by g, n' must be
    at least b' * (n' * b'^-1 mod a')."""
    g = gcd(a, b)
    if n < 0 or n % g:
        return False
    a, b, n = a // g, b // g, n // g
    return n >= b * ((n * pow(b, -1, a)) % a)


def sab_generators(a, b):
    """S_{a,b} = <(a,0), (0,1), (b,1)> in Z^2."""
    return ((a, 0), (0, 1), (b, 1))


def sab_seminormal(a, b):
    """S_{a,b} is seminormal iff a | b or a = 2b."""
    return b % a == 0 or a == 2 * b


def sab_weakly_normal(a, b, p):
    """S_{a,b} is weakly normal at p iff it is seminormal and p does not divide a."""
    return sab_seminormal(a, b) and (p == 0 or a % p != 0)


def sab_member(a, b, x, y):
    """(x,y) in S_{a,b} iff some k in [0, y] has x - k b in aN."""
    if y < 0:
        return False
    return any((x - k * b) >= 0 and (x - k * b) % a == 0 for k in range(min(y, x // b) + 1))


def pinch_member(x, y):
    """The pinch <(2,0), (0,1), (1,1)>: x, y >= 0 and (x even or y >= 1)."""
    return x >= 0 and y >= 0 and (x % 2 == 0 or y >= 1)


def relative_wn_generator(d, p):
    """relative_wn(<d>, N, p) = (d / p^{v_p(d)}) N."""
    while d % p == 0:
        d //= p
    return d


def betti_torus(n):
    """Betti numbers of the n-torus: binomial coefficients."""
    return [comb(n, p) for p in range(n + 1)]


def betti_contractible(n):
    """Affine spaces, normal crossings and every pointed affine monoid: (1, 0, ..., 0)."""
    return [1] + [0] * n


# ---------------------------------------------------------------------------
# brute force


def monoid_points(gens, bound):
    """All points of the monoid generated by `gens` (nonnegative vectors) with
    every coordinate at most `bound`, by closure under adding generators."""
    n = len(gens[0])
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple(x + y for x, y in zip(v, g))
            if max(w) <= bound and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def contains_all(gens, targets):
    """Every target is a nonnegative integer combination of `gens`; all of
    `gens` must be nonnegative vectors, which makes the search finite."""
    if not targets:
        return True
    if any(min(g) < 0 for g in gens):
        return False
    bound = max(max(t) for t in targets)
    pts = monoid_points([g for g in gens if any(g)] or [tuple(0 for _ in targets[0])], bound)
    return all(tuple(t) in pts for t in targets)


def _brute_sn_wn(pts, n, bound, p):
    """(seminormal, weakly normal at p) of the monoid whose points inside the
    box [0, bound]^n are `pts`, from the definitions: 2x, 3x in S forces x in
    S; p x in S forces x in S.  Each x is tested while its multiples stay in
    the box."""
    def closed(k, *mults):
        for x in itertools.product(range(bound // k + 1), repeat=n):
            if x not in pts and all(tuple(m * c for c in x) in pts for m in mults):
                return False
        return True

    sn = closed(3, 2, 3)
    return sn, sn and closed(p, p)


def self_check():
    """Compare every closed form with enumeration on a small grid.

    Returns a list of disagreements; empty means the oracles hold there.
    """
    bad = []
    for a, b in itertools.product(range(1, 9), repeat=2):
        bound = 6 * a * b + 6
        pts = monoid_points([(a,), (b,)], bound)
        for n in range(bound + 1):
            if ab_member(a, b, n) != ((n,) in pts):
                bad.append(f"ab_member({a},{b},{n})")
        for p in (2, 3, 5):
            sn, wn = _brute_sn_wn(pts, 1, bound, p)
            if ab_seminormal(a, b) != sn:
                bad.append(f"ab_seminormal({a},{b})")
            if ab_weakly_normal(a, b, p) != wn:
                bad.append(f"ab_weakly_normal({a},{b},{p})")
    for a, b in itertools.product(range(1, 7), repeat=2):
        bound = 6 * (a + b) + 6
        pts = monoid_points(list(sab_generators(a, b)), bound)
        for x, y in itertools.product(range(bound + 1), repeat=2):
            if sab_member(a, b, x, y) != ((x, y) in pts):
                bad.append(f"sab_member({a},{b},{x},{y})")
        for p in (2, 3, 5):
            sn, wn = _brute_sn_wn(pts, 2, bound, p)
            if sab_seminormal(a, b) != sn:
                bad.append(f"sab_seminormal({a},{b})")
            if sab_weakly_normal(a, b, p) != wn:
                bad.append(f"sab_weakly_normal({a},{b},{p})")
    pts = monoid_points([(2, 0), (0, 1), (1, 1)], 20)
    for x, y in itertools.product(range(-2, 21), repeat=2):
        if pinch_member(x, y) != ((x, y) in pts):
            bad.append(f"pinch_member({x},{y})")
    for d in range(1, 61):
        for p in (2, 3, 5):
            brute = min(x for x in range(1, d + 1) if any((p**e * x) % d == 0 for e in range(7)))
            if relative_wn_generator(d, p) != brute:
                bad.append(f"relative_wn_generator({d},{p})")
    for n in range(5):
        # fiber at degree 0 of the torus: alpha = 0, so H^p is all of wedge^p Q^n
        if betti_torus(n) != [len(list(itertools.combinations(range(n), p))) for p in range(n + 1)]:
            bad.append(f"betti_torus({n})")
    return bad
