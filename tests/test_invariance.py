"""The answers that do not depend on coordinates stay the same when a model is
moved by an element of GL_n(Z), and the ones that do move with it: the
normalized complexes, the germs and the form dimensions by degree."""

import contextlib
import io
import json
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torf.cli import main
from torf.fixtures import fixture_names
from torf.cones import cone_from_generators
from torf.linalg import Sublattice, member_lattice, vec_neg

from reference import transform_model

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)
MODELS = Path(__file__).with_name("models")
MODEL_NAMES = sorted(p.stem for p in MODELS.glob("*.json"))


def run_text(text, *argv):
    """Exit code and machine `results` ({} when nothing is printed) of a
    command on a model text, read from standard input."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            code = main([argv[0], "-", *argv[1:], "--format", "machine"])
        finally:
            sys.stdin = stdin
    return code, json.loads(out.getvalue())["results"] if out.getvalue() else {}


def invariants(text):
    """What validate, classify, orbits and betti --theoretical report that no
    change of basis of Z^n can move: verdicts, the multiset of classify
    indices, the orbit count and the Betti numbers."""
    valid, cls, orb, betti = (run_text(text, *argv) for argv in (
        ["validate"], ["classify"], ["orbits"], ["betti", "--theoretical"]))
    return {
        "validate": (valid[0], valid[1].get("valid")),
        "classify": (cls[0], cls[1].get("seminormal"), cls[1].get("weakly_normal"),
                     Counter(row["index"] for row in cls[1].get("family", ()))),
        "orbits": (orb[0], len(orb[1].get("orbits", ()))),
        "betti": (betti[0], betti[1].get("betti")),
    }


@lru_cache(maxsize=None)
def fixture_text(name):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["fixtures", name]) == 0
    return out.getvalue()


@lru_cache(maxsize=None)
def model_text(name):
    return (MODELS / f"{name}.json").read_text()


def elementary(n):
    """One elementary matrix of GL_n(Z), as (kind, i, j, c): add c times row j
    to row i, swap rows i and j, or negate row i."""
    index = st.integers(0, n - 1)
    ops = [st.tuples(st.just("neg"), index, index, st.just(-1))]
    if n > 1:
        pair = st.lists(index, min_size=2, max_size=2, unique=True)
        ops.append(pair.map(lambda ij: ("swap", *ij, 0)))
        ops.append(st.tuples(pair, st.sampled_from([-2, -1, 1, 2]))
                   .map(lambda t: ("add", *t[0], t[1])))
    return st.one_of(ops)


def product(n, ops):
    """The product of the elementary matrices `ops` (applied to rows of the identity)."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for kind, i, j, c in ops:
        if kind == "add":
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


class TestTransformModel:
    def test_identity_keeps_the_model(self):
        doc = json.loads(fixture_text("pinch"))
        assert transform_model(doc, [[1, 0], [0, 1]]) == doc

    def test_moves_cones_and_monoids(self):
        doc = json.loads(fixture_text("pinch"))
        moved = transform_model(doc, [[0, 1], [1, 0]])
        swap = lambda vs: [[b, a] for a, b in vs]
        assert moved["cones"] == {k: swap(v) for k, v in doc["cones"].items()}
        assert moved["monoids"] == {k: {"generators": swap(v["generators"])}
                                    for k, v in doc["monoids"].items()}
        assert moved["fan"] == doc["fan"]

    def test_moves_strata(self):
        doc = {"schema": "torf-1", "ambient_rank": "1", "cones": {"a": [["1"]]},
               "fan": {"face_closure_of": ["a"]},
               "monoids": {"a": {"strata": [{"face": [["1"]], "basis": [["2"]]},
                                            {"face": [], "basis": []}]}}}
        moved = transform_model(doc, [[-1]])
        assert moved["cones"] == {"a": [["-1"]]}
        assert moved["monoids"]["a"]["strata"][0] == {"face": [["-1"]], "basis": [["-2"]]}


class TestUnimodularInvariance:
    def check(self, text, data):
        doc = json.loads(text)
        n = int(doc["ambient_rank"])
        ops = data.draw(st.lists(elementary(n), min_size=1, max_size=4), label="ops")
        moved = json.dumps(transform_model(doc, product(n, ops)))
        assert invariants(moved) == invariants(text)

    @pytest.mark.parametrize("name", fixture_names())
    @PROPERTY
    @given(data=st.data())
    def test_fixture(self, name, data):
        self.check(fixture_text(name), data)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @PROPERTY
    @given(data=st.data())
    def test_model(self, name, data):
        self.check(model_text(name), data)


def inverse(ops):
    """The elementary operations whose product is the inverse of `product(n, ops)`."""
    return [(kind, i, j, -c if kind == "add" else c) for kind, i, j, c in reversed(ops)]


def move(u, v):
    return tuple(sum(a * int(x) for a, x in zip(row, v)) for row in u)


def normalized(results, u):
    """A `normalize` result with every vector moved by u, as a set that no
    canonical order enters: per cone, the cone, the lattice U of its
    generators in its lineality, the other generators, and each stratum as
    (face, lattice).  A cone is the `Cone` of its moved rays and lineality,
    which depends on the set only.  The other generators are taken up to U,
    each as the lattice it spans with U: two of them span the same one only
    when they differ by a unit, so this is the unique Hilbert basis modulo U."""
    n = len(u)

    def lattice(vectors):
        return Sublattice.from_generators(n, [move(u, v) for v in vectors])

    def face(c):
        lin = [move(u, v) for v in c["lineality"]]
        return cone_from_generators(n, [move(u, r) for r in c["rays"]] + lin
                                    + [vec_neg(v) for v in lin])

    strata = {face(row["cone"]): frozenset((face(s["face"]), lattice(s["basis"]))
                                           for s in row["strata"])
              for row in results["strata"]}
    out = set()
    for row in results["cones"]:
        key, lin = face(row["cone"]), lattice(row["cone"]["lineality"])
        gens = [move(u, g) for g in row["generators"]]
        units = [g for g in gens if member_lattice(lin, g)]
        rest = frozenset(Sublattice.from_generators(n, units + [g])
                         for g in gens if g not in units)
        out.add((key, Sublattice.from_generators(n, units), rest, strata[key]))
    return out


def form_dims(text, p, box):
    """Degree -> dimension of the p-forms, from `forms --box`."""
    code, results = run_text(text, "forms", "--box", str(box), "--p", str(p))
    assert code == 0
    return {tuple(int(x) for x in m.strip("()").split(",") if x.strip()): int(d)
            for m, d in results["per_degree"].items()}


class TestUnimodularEquivariance:
    """`normalize` (sn, and wn at 2) maps by U, and on the fixtures the
    `forms --box 2` dimension at U m is the dimension at m."""

    NORMALIZE = (("normalize",), ("normalize", "--mode", "wn", "--char", "2"))

    def check_normalize(self, text, data):
        """The moved text, n and the ops of U, once `normalize` is checked on them."""
        doc = json.loads(text)
        n = int(doc["ambient_rank"])
        ops = data.draw(st.lists(elementary(n), min_size=1, max_size=2), label="ops")
        u, identity = product(n, ops), product(n, [])
        moved = json.dumps(transform_model(doc, u))
        for argv in self.NORMALIZE:
            (code, got), (code0, want) = run_text(moved, *argv), run_text(text, *argv)
            assert code == code0 == 0
            assert got["already_normal"] == want["already_normal"]
            assert normalized(got, identity) == normalized(want, u), argv
        return moved, n, ops

    @pytest.mark.parametrize("name", fixture_names())
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_fixture(self, name, data):
        text = fixture_text(name)
        moved, n, ops = self.check_normalize(text, data)
        u = product(n, ops)
        p = data.draw(st.integers(0, n), label="p")
        box = 2 * max(sum(map(abs, row)) for row in u)  # holds U m for m in box 2
        back = product(n, inverse(ops))
        want = {move(u, m): d for m, d in form_dims(text, p, 2).items()}
        got = form_dims(moved, p, box)
        assert {m: d for m, d in got.items() if max(map(abs, move(back, m)), default=0) <= 2} == want

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_model(self, name, data):
        self.check_normalize(model_text(name), data)


def germ_table(results, u):
    """A `germ` result with every vector moved by u, re-sorted canonically:
    the `Cone` of each cone's moved generators -> its monoid's moved
    generators, sorted."""
    doc = results["germ_model"]
    n = len(u)
    moved = lambda vs: [move(u, v) for v in vs]
    return {cone_from_generators(n, moved(doc["cones"][name])):
            tuple(sorted(moved(doc["monoids"][name]["generators"])))
            for name in doc["fan"]}


class TestGermEquivariance:
    """The germ of U x at U t is U applied to the germ of x at t, for every
    cone t of every fixture."""

    @pytest.mark.parametrize("name", fixture_names())
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_fixture(self, name, data):
        text = fixture_text(name)
        doc = json.loads(text)
        n = int(doc["ambient_rank"])
        ops = data.draw(st.lists(elementary(n), min_size=1, max_size=3), label="ops")
        u, identity = product(n, ops), product(n, [])
        moved = json.dumps(transform_model(doc, u))
        for cone in doc["cones"]:
            (code, got), (code0, want) = (run_text(t, "germ", "--cone", cone) for t in (moved, text))
            assert code == code0 == 0
            assert germ_table(got, identity) == germ_table(want, u), cone
