"""The answers that do not depend on coordinates stay the same when a model is
moved by an element of GL_n(Z)."""

import contextlib
import io
import json
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from torf.cli import main
from torf.fixtures import fixture_names

from reference import transform_model

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


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
    @pytest.mark.parametrize("name", fixture_names())
    @PROPERTY
    @given(data=st.data())
    def test_fixture(self, name, data):
        text = fixture_text(name)
        doc = json.loads(text)
        n = int(doc["ambient_rank"])
        ops = data.draw(st.lists(elementary(n), min_size=1, max_size=4), label="ops")
        moved = json.dumps(transform_model(doc, product(n, ops)))
        assert invariants(moved) == invariants(text)
