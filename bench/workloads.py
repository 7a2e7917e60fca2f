"""Seeded inputs and known answers for the three workloads.

A plan is made from the seed alone; the program under test only ever sees
the generated inputs.  Each operation carries the answer it must give, taken
from `oracles`, so this module never imports torf.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import oracles

# ---------------------------------------------------------------------------
# cli-fixtures


FIXTURES = (
    "torus-1", "torus-2", "torus-3",
    "affine-1", "affine-2", "affine-3",
    "pinch", "pinch-pair",
    "power-6-extension",
    "numeric-semigroup-2-3",
    "normal-crossings-2-1", "normal-crossings-2-2", "normal-crossings-3-2",
    "axes-cross",
)
BROKEN = {
    "broken-missing-face": "MissingFace",
    "broken-overlap": "BadIntersection",
    "broken-incompatible": "CompatibilityFailure",
}
CLI_COMMANDS = (
    ("validate",),
    ("orbits",),
    ("classify",),
    ("normalize",),
    ("normalize", "--mode", "wn", "--char", "2"),
    ("betti", "--theoretical"),
    ("betti", "--box", "4"),
    ("forms", "--box", "3"),
)
PAIR_COMMAND = ("forms", "--pair", "boundary")
PAIR_BOX = 4  # `forms` box when none is given
CLASSIFY_CHARS = (0, 2, 3, 5)  # `classify` characteristics when none are given


def _rank(name):
    if name.startswith(("torus-", "affine-")):
        return int(name.split("-")[1])
    if name.startswith("normal-crossings-"):
        return int(name.split("-")[3]) + 1
    return {"pinch": 2, "pinch-pair": 2, "power-6-extension": 1,
            "numeric-semigroup-2-3": 1, "axes-cross": 1}[name]


def _has_pair(name):
    return name.startswith(("affine-", "normal-crossings-")) or name == "pinch-pair"


def _sn(name):
    return name != "numeric-semigroup-2-3"


def _wn(name, p):
    """Weak normality at p (0 means characteristic zero)."""
    if name in ("pinch", "pinch-pair"):
        return oracles.sab_weakly_normal(2, 1, p)
    if name == "power-6-extension":
        return oracles.ab_weakly_normal(6, 6, p)
    if name == "numeric-semigroup-2-3":
        return oracles.ab_weakly_normal(2, 3, p)
    return True


def _support(name, m):
    """Support of the characteristic-zero weak normalization, which `forms` sums over."""
    if name.startswith("affine-"):
        return min(m) >= 0
    if name in ("pinch", "pinch-pair"):
        return oracles.pinch_member(*m)
    if name == "power-6-extension":
        return m[0] >= 0 and m[0] % 6 == 0
    if name == "numeric-semigroup-2-3":
        return m[0] >= 0  # sn<2,3> = N
    if name.startswith("normal-crossings-"):
        q = int(name.split("-")[2])
        return min(m) >= 0 and any(x == 0 for x in m[:q])
    return True  # tori and the axes cross cover the whole lattice


def _pair_region(name, m):
    """Degrees of the pair (X, boundary): relative interiors of the maximal cones."""
    if name.startswith("normal-crossings-"):
        q = int(name.split("-")[2])
        return any(m[i] == 0 and all(x >= 1 for j, x in enumerate(m) if j != i)
                   for i in range(q))
    return min(m) >= 1  # affine spaces and the pinch: interior of the orthant


def _box(n, bound):
    pts = [()]
    for _ in range(n):
        pts = [p + (x,) for p in pts for x in range(-bound, bound + 1)]
    return pts


def _vec_str(v):
    return "(" + ", ".join(str(x) for x in v) + ")"


@dataclass(frozen=True)
class CliOp:
    fixture: str
    args: tuple

    @property
    def label(self):
        return " ".join((self.args[0], self.fixture) + self.args[1:])


def cli_plan(seed):
    """Every command on every fixture, plus the broken fixtures through
    `validate`, in an order drawn from the seed."""
    ops = [CliOp(f, c) for f in FIXTURES for c in CLI_COMMANDS]
    ops += [CliOp(f, PAIR_COMMAND) for f in FIXTURES if _has_pair(f)]
    ops += [CliOp(f, ("validate",)) for f in BROKEN]
    random.Random(seed).shuffle(ops)
    return ops


def _rank1_generated(gens, d):
    """The listed generators of a rank-1 monoid generate dN."""
    vals = [int(g[0]) for g in gens]
    return d in vals and all(v % d == 0 for v in vals)


def _top_generators(results):
    top = max(results["cones"], key=lambda c: c["cone"]["dim"])
    return [tuple(int(x) for x in g) for g in top["generators"]]


def _normalized_ok(name, mode, gens):
    """Known top monoid of the normalization, where it differs from the input."""
    if name == "numeric-semigroup-2-3":
        return _rank1_generated(gens, 1)
    if name == "power-6-extension":
        return _rank1_generated(gens, 6 if mode == "sn" else oracles.relative_wn_generator(6, 2))
    if name in ("pinch", "pinch-pair"):
        if mode == "sn":
            return (all(oracles.pinch_member(*g) for g in gens)
                    and oracles.contains_all(gens, list(oracles.sab_generators(2, 1))))
        return all(min(g) >= 0 for g in gens) and oracles.contains_all(gens, [(1, 0), (0, 1)])
    return True


def _orbits_ok(rows, ncones):
    if len(rows) != ncones:
        return f"{len(rows)} orbit rows for {ncones} cones"
    for r in rows:
        if len(r["orbit_lattice"]) != r["cone"]["dim"]:
            return "orbit lattice rank differs from the cone dimension"
    closed = [r for r in rows if r["closed_orbit"]]
    if len(closed) != 1 or closed[0]["cone"]["dim"] != min(r["cone"]["dim"] for r in rows):
        return "closed orbit is not the unique minimal cone"

    def rays(r):
        return {tuple(v) for v in r["cone"]["rays"]}

    for r in rows:
        maximal = not any(rays(r) < rays(o) and r["cone"]["lineality"] == o["cone"]["lineality"]
                          for o in rows)
        if r["is_facet"] != maximal:
            return "is_facet disagrees with maximality in the fan"
    return None


def _per_degree_ok(per_degree, n, bound, region):
    want = {_vec_str(m) for m in _box(n, bound) if region(m)}
    if set(per_degree) != want:
        return f"{len(per_degree)} degrees, expected {len(want)}"
    if any(v != "1" for v in per_degree.values()):
        return "a degree-0 form space has dimension other than 1"
    return None


def cli_check(op, model, code, body):
    """None when the command's exit code and machine output match the known
    answer; otherwise a one-line reason.  `body` is the parsed JSON output,
    or None when there was none."""
    name, cmd = op.fixture, op.args[0]
    if name in BROKEN:
        want = BROKEN[name]
        if code != 2:
            return f"exit {code}, expected 2"
        got = body and body["results"].get("error")
        return None if got == want else f"error {got}, expected {want}"
    n = _rank(name)
    expect_exit = 2 if cmd == "betti" and not _wn(name, 0) else 0
    if code != expect_exit:
        return f"exit {code}, expected {expect_exit}"
    if expect_exit:
        return None
    if body is None:
        return "no machine output"
    res = body["results"]
    if cmd == "validate":
        if res.get("valid") is not True or len(res["cones"]) != len(model["fan"]):
            return "not reported valid with every fan cone"
    elif cmd == "orbits":
        return _orbits_ok(res["orbits"], len(model["fan"]))
    elif cmd == "classify":
        if res["seminormal"] != _sn(name):
            return f"seminormal {res['seminormal']}, expected {_sn(name)}"
        for p in CLASSIFY_CHARS:
            got = res["weakly_normal"][str(p)]
            if got != _wn(name, p):
                return f"weakly normal at {p} {got}, expected {_wn(name, p)}"
        if len(res["family"]) != len(model["fan"]):
            return "lattice family does not cover every cone"
    elif cmd == "normalize":
        mode = res["mode"]
        normal = _sn(name) if mode == "sn" else _wn(name, 2)
        if res["already_normal"] != normal:
            return f"already_normal {res['already_normal']}, expected {normal}"
        if not _normalized_ok(name, mode, _top_generators(res)):
            return f"{mode} normalization has the wrong top monoid"
    elif cmd == "betti":
        want = oracles.betti_torus(n) if name.startswith("torus-") else oracles.betti_contractible(n)
        got = [int(x) for x in res["betti"]]
        if got != want:
            return f"betti {got}, expected {want}"
    elif cmd == "forms":
        if "--pair" in op.args:
            return _per_degree_ok(res["per_degree"], n, PAIR_BOX, lambda m: _pair_region(name, m))
        return _per_degree_ok(res["per_degree"], n, int(op.args[2]), lambda m: _support(name, m))
    return None


# ---------------------------------------------------------------------------
# library workloads: operations on seeded monoids


@dataclass(frozen=True)
class LibOp:
    """One library query.  `kind` selects the call, `monoid` is (rank,
    generators), `arg` is the extra argument and `expected` the known answer
    (for `sn_contains`, the generators the result must contain)."""

    kind: str
    monoid: tuple
    arg: object
    expected: object

    @property
    def label(self):
        gens = ",".join(_vec_str(g) if len(g) > 1 else str(g[0]) for g in self.monoid[1])
        arg = "" if self.arg is None else f", {self.arg}"
        return f"{self.kind}(<{gens}>{arg})"


def _log_uniform(rng, lo, hi):
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _coefficients(rng, i, top=100):
    """a, b for draw i, cycling through four kinds that decide the verdicts:
    b a multiple of a, a = 2b, a common factor with neither dividing the
    other, and independent; all log-uniform up to `top`."""
    kind = i % 4
    if kind == 0:
        a = _log_uniform(rng, 2, top // 3)
        return a, a * rng.randint(1, 3)
    if kind == 1:
        b = _log_uniform(rng, 1, top // 2)
        return 2 * b, b
    if kind == 2:
        g = _log_uniform(rng, 2, top // 4)
        while True:
            a, b = (_log_uniform(rng, 2, top // g) for _ in range(2))
            if math.gcd(a, b) == 1 and a != 1 and b != 1:
                return g * a, g * b
    return _log_uniform(rng, 2, top), _log_uniform(rng, 1, top)


def _verdict_ops(monoid, sn, wn_of):
    ops = [LibOp("is_seminormal", monoid, None, sn)]
    ops += [LibOp("is_weakly_normal", monoid, p, wn_of(p)) for p in (2, 3, 5)]
    ops.append(LibOp("sn_contains", monoid, None, monoid[1]))
    return ops


def scale_plan(seed, size):
    """Seminormality and weak normality verdicts on fresh monoids of rising
    rank; `size` gives how many draws of each rank."""
    rng = random.Random(seed)
    ops = []
    for i in range(size["rank1"]):
        a, b = _coefficients(rng, i)
        ops += _verdict_ops((1, ((a,), (b,))), oracles.ab_seminormal(a, b),
                            lambda p, a=a, b=b: oracles.ab_weakly_normal(a, b, p))
    for i in range(size["rank2"]):
        a, b = _coefficients(rng, i)
        ops += _verdict_ops((2, oracles.sab_generators(a, b)), oracles.sab_seminormal(a, b),
                            lambda p, a=a, b=b: oracles.sab_weakly_normal(a, b, p))
    for i in range(size["rank3"]):
        a, b = _coefficients(rng, i, size["rank3_top"])
        gens = tuple(g + (0,) for g in oracles.sab_generators(a, b)) + ((0, 0, 1),)
        ops += _verdict_ops((3, gens), oracles.sab_seminormal(a, b),
                            lambda p, a=a, b=b: oracles.sab_weakly_normal(a, b, p))
    for _ in range(size["relative_wn"]):
        d = _log_uniform(rng, 2, 100)
        p = rng.choice((2, 3, 5))
        ops.append(LibOp("relative_wn", (1, ((d,),)), p, oracles.relative_wn_generator(d, p)))
    for _ in range(size["rank4"]):
        ops.append(LibOp("betti_affine", (4, ()), None, oracles.betti_contractible(4)))
    return ops


def _levels(rng, top, count, ratio=1.15):
    """`count` sizes rising geometrically by `ratio` up to `top`, each jittered."""
    return [max(1, int(top / ratio**i * rng.uniform(0.97, 1.03))) for i in reversed(range(count))]


# (a, b) pairs for membership-deep: coprime, one dividing the other, and a
# common factor with neither dividing, with the larger coefficient in each
# of three size bins.  The panel is fixed so that every pass does comparable
# work; the seed draws where the queries fall.
PANEL = (
    (3, 5), (4, 2), (6, 4),
    (11, 17), (7, 21), (10, 25),
    (41, 67), (19, 95), (42, 70),
)


def membership_plan(seed, size):
    """Deep `member` queries on <a,b> and S_{a,b} for every pair in PANEL and
    on the pinch: one query at each of `levels` sizes rising geometrically
    to the monoid's top, so each query extends the search memo left by the
    ones before.  The top is `depth_ab` steps of max(a,b) for <a,b> (along
    a residue class drawn from the seed) and `depth_sab` steps of a along
    the x-axis of S_{a,b}, so every monoid needs a comparable number of
    search steps.  Queries stay in the monoid's group, where the lattice
    test cannot answer them and the search has to run."""
    rng = random.Random(seed)
    levels, max_y = size["levels"], size["max_y"]
    ops = []
    for a, b in PANEL:
        g, step = math.gcd(a, b), max(a, b)  # the group is gcd(a,b)Z
        s = (1, ((a,), (b,)))
        r = g * rng.randrange(step // g)
        for k in _levels(rng, size["depth_ab"], levels):
            n = r + k * step
            ops.append(LibOp("member", s, (n,), oracles.ab_member(a, b, n)))
    for a, b in PANEL:
        g = math.gcd(a, b)  # the group is gcd(a,b)Z x Z
        s = (2, oracles.sab_generators(a, b))
        for i, v in enumerate(_levels(rng, size["depth_sab"] * a // g, levels)):
            x, y = v * g, i % (max_y + 1)
            ops.append(LibOp("member", s, (x, y), oracles.sab_member(a, b, x, y)))
    s = (2, oracles.sab_generators(2, 1))
    for i, v in enumerate(_levels(rng, size["top_pinch"], levels)):
        x, y = ((v | 1, 0), (2 * (v // 3) + 1, v // 3), (v, v // 6))[i % 3]
        ops.append(LibOp("member", s, (x, y), oracles.pinch_member(x, y)))
    return ops


def check_lib(op, answer):
    """None when `answer` (already reduced to plain Python values by the
    worker) is the known answer, otherwise a one-line reason."""
    if op.kind == "sn_contains":
        ok = oracles.contains_all(answer, list(op.expected))
    elif op.kind == "relative_wn":
        ok = _rank1_generated(answer, op.expected)
    elif op.kind == "betti_affine":
        ok = list(answer) == op.expected
    else:
        ok = answer == op.expected
    if ok:
        return None
    want = f"generators containing {op.expected}" if op.kind == "sn_contains" else op.expected
    return f"got {answer}, expected {want}"
