"""Command line interface: commands, formats, exit codes, determinism."""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import torf.cli
import torf.complexes
import torf.cones
import torf.derham
import torf.model
import torf.monoids
from torf.cli import _box, main
from torf.complexes import support_box
from torf.cones import cone_from_generators, faces, is_face_of
from torf.errors import WorkTooLarge
from torf.fixtures import broken_fixture_names, fixture_names
from torf.model import SCHEMA, build_complex, parse_model
from torf.monoids import AffineMonoid

from test_package import fresh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(capsys, tmp_path, name):
    code, out, err = run(capsys, "fixtures", name)
    assert code == 0, err
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    return str(path)


class TestFixturesCommand:
    def test_all_valid_fixtures_roundtrip(self, capsys, tmp_path):
        for name in fixture_names():
            path = write_fixture(capsys, tmp_path, name)
            code, out, _err = run(capsys, "validate", path)
            assert code == 0, name
            assert "valid monoidal complex" in out

    def test_unknown_fixture(self, capsys):
        code, _out, err = run(capsys, "fixtures", "no-such-thing")
        assert code == 1
        assert "unknown fixture" in err

    @pytest.mark.parametrize("name", ["torus-5", "affine-5", "affine-12"])
    def test_family_rank_capped(self, capsys, name):
        code, out, err = run(capsys, "fixtures", name)
        assert code == 1
        assert out == ""
        assert err == f"torf: {name}: n must be <= 4\n"

    def test_fixture_output_is_schema(self, capsys):
        _code, out, _err = run(capsys, "fixtures", "pinch")
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA


class TestValidate:
    @pytest.mark.parametrize("name,expected", [
        ("broken-missing-face", "MissingFace"),
        ("broken-overlap", "BadIntersection"),
        ("broken-incompatible", "CompatibilityFailure"),
    ])
    def test_broken_rejected(self, capsys, tmp_path, name, expected):
        path = write_fixture(capsys, tmp_path, name)
        code, out, _err = run(capsys, "validate", path)
        assert code == 2
        assert expected in out
        code, out, _err = run(capsys, "validate", path, "--format", "machine")
        assert code == 2
        res = json.loads(out)["results"]
        assert res["error"] == expected
        if name == "broken-overlap":
            assert res["witness"] == ["0", "1"]

    def test_strata_missing_a_face_invalid(self, capsys, tmp_path):
        doc = {
            "schema": SCHEMA, "ambient_rank": "1", "cones": {"a": [["1"]]},
            "fan": {"face_closure_of": ["a"]},
            "monoids": {"a": {"strata": [{"face": [["1"]], "basis": [["2"]]}]}},
        }
        code, out, _err = run(capsys, "validate", write_model(tmp_path, doc), "--format", "machine")
        assert code == 2
        assert json.loads(out)["results"]["error"] == "BadLatticeFamily"

    def test_stratum_of_wrong_rank_reported_on_its_face(self, capsys, tmp_path):
        strata = [{"face": [], "basis": []}, {"face": [["1", "0"]], "basis": []},
                  {"face": [["0", "1"]], "basis": [["0", "1"]]},
                  {"face": [["1", "0"], ["0", "1"]], "basis": [["1", "0"], ["0", "1"]]}]
        doc = {
            "schema": SCHEMA, "ambient_rank": "2", "cones": {"q": [["1", "0"], ["0", "1"]]},
            "fan": {"face_closure_of": ["q"]}, "monoids": {"q": {"strata": strata}},
        }
        path = write_model(tmp_path, doc)
        code, out, _err = run(capsys, "validate", path)
        assert code == 2
        assert out == ("torf validate\ninvalid: BadLatticeFamily: invalid lattice family at"
                       " cone[(1, 0)] < cone[(1, 0)]: stratum does not have finite index\n")
        code, out, _err = run(capsys, "validate", path, "--format", "machine")
        assert code == 2
        assert json.loads(out)["results"]["error"] == "BadLatticeFamily"

    @pytest.mark.parametrize("face,basis,needle", [
        ([["-1"]], [["5"]], "stratum face [[-1]] of cone 'a' is not a face of it"),
        ([["1"]], [["3"]], "stratum face [[1]] of cone 'a' is given twice"),
    ])
    def test_stratum_off_the_faces_rejected(self, capsys, tmp_path, face, basis, needle):
        strata = [{"face": [["1"]], "basis": [["2"]]}, {"face": [], "basis": []},
                  {"face": face, "basis": basis}]
        doc = {
            "schema": SCHEMA, "ambient_rank": "1", "cones": {"a": [["1"]]},
            "fan": {"face_closure_of": ["a"]}, "monoids": {"a": {"strata": strata}},
        }
        code, out, err = run(capsys, "validate", write_model(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert err == f"torf: {needle}\n"

    def test_missing_face_named_by_label(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "broken-missing-face")
        code, out, _err = run(capsys, "validate", path)
        assert code == 2
        assert out == ("torf validate\ninvalid: MissingFace: fan is missing a face: "
                       "cone[(0, 1)] of cone[(0, 1); (1, 0)]\n")
        code, out, err = run(capsys, "orbits", path)
        assert (code, out) == (2, "")
        assert err == "torf: MissingFace: fan is missing a face: cone[(0, 1)] of cone[(0, 1); (1, 0)]\n"

    def test_pair_off_the_fan_named_by_label(self, capsys, tmp_path):
        doc = {
            "schema": SCHEMA, "ambient_rank": "2",
            "cones": {"a": [["1", "0"], ["0", "1"]], "b": [["-1", "0"]]},
            "fan": {"face_closure_of": ["a"]}, "pairs": {"p": ["b"]},
        }
        code, out, _err = run(capsys, "validate", write_model(tmp_path, doc))
        assert code == 2
        assert out == "torf validate\ninvalid: NotASubfan: cone[(-1, 0)] is not in the complex fan\n"

    def test_parse_error_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "torf-1", "surprise": true}')
        code, _out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "unknown keys" in err

    @pytest.mark.parametrize("key, value", [("monoids", [1]), ("monoids", "x"), ("monoids", []),
                                            ("pairs", []), ("options", None)])
    def test_section_not_an_object(self, capsys, tmp_path, key, value):
        doc = {"schema": SCHEMA, "ambient_rank": "1", "cones": {"r": [["1"]]},
               "fan": {"face_closure_of": ["r"]}, key: value}
        code, out, err = run(capsys, "validate", write_model(tmp_path, doc))
        assert (code, out, err) == (1, "", f"torf: {key} must be an object\n")

    def test_unreadable_file(self, capsys, tmp_path):
        code, _out, err = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 1

    def test_non_integer_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": SCHEMA,
            "ambient_rank": "1",
            "cones": {"r": [["1.5"]]},
            "fan": {"face_closure_of": ["r"]},
        }))
        code, _out, err = run(capsys, "validate", str(path))
        assert code == 1


class TestClassify:
    def test_pinch_verdicts(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "pinch")
        code, out, _err = run(capsys, "classify", path, "--format", "machine")
        assert code == 0
        body = json.loads(out)
        res = body["results"]
        assert res["seminormal"] is True
        assert res["weakly_normal"]["2"] is False
        assert res["weakly_normal"]["3"] is True
        assert res["weakly_normal"]["5"] is True
        assert res["weakly_normal"]["0"] is True

    def test_numeric_semigroup_not_sn(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "numeric-semigroup-2-3")
        code, out, _err = run(capsys, "classify", path, "--format", "machine")
        assert code == 0
        assert json.loads(out)["results"]["seminormal"] is False

    def test_normal_crossings_all_p(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "normal-crossings-2-1")
        code, out, _err = run(
            capsys, "classify", path,
            "--char", "2", "--char", "3", "--char", "7", "--format", "machine",
        )
        assert code == 0
        wn = json.loads(out)["results"]["weakly_normal"]
        assert all(wn.values())


WIDE_MODEL = {
    "schema": SCHEMA,
    "ambient_rank": 2,
    "cones": {"c": [[1, 0], [0, 1]]},
    "fan": {"face_closure_of": ["c"]},
    "monoids": {"c": {"generators": [[20, 0], [0, 1], [30, 1]]}},
}


def write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestWorkBudget:
    """A Hilbert basis of more than 10^3 parallelepiped points is refused
    before any is listed: the cone <e1, e2, (1, 1, d)> lists d of them."""

    def model(self, tmp_path, d):
        return write_model(tmp_path, {
            "schema": SCHEMA, "ambient_rank": 3,
            "cones": {"c": [[1, 0, 0], [0, 1, 0], [1, 1, d]]},
            "fan": {"face_closure_of": ["c"]}, "monoids": {"c": "saturated"}})

    @pytest.mark.parametrize("command", ["validate", "classify", "normalize"])
    def test_refused_with_the_estimate(self, capsys, tmp_path, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, self.model(tmp_path, 10**5), "--format", "machine")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == ("torf: the Hilbert basis of cone[(0, 1, 0); (1, 0, 0); (1, 1, 100000)]"
                       " would list 100000 parallelepiped points; the limit is 1000\n")

    def test_at_the_limit_runs(self, capsys, tmp_path):
        code, out, _err = run(capsys, "validate", self.model(tmp_path, 10**3), "--format", "machine")
        assert code == 0
        top = json.loads(out)["results"]["cones"][-1]
        assert sorted(top["generators"]) == sorted(
            [["0", "1", "0"], ["1", "0", "0"]] + [["1", "1", str(k)] for k in range(1, 1001)])


class TestStrataBudget:
    """Strata candidates are sized before they are listed, as a Hilbert basis
    is: the monoid on e1, e2, (1, 1, d) and (1, 1, d - 1) has the strata of
    the saturated cone <e1, e2, (1, 1, d)>, whose cell holds d points."""

    def model(self, tmp_path, d):
        return write_model(tmp_path, {
            "schema": SCHEMA, "ambient_rank": 3,
            "cones": {"c": [[1, 0, 0], [0, 1, 0], [1, 1, d]]},
            "fan": {"face_closure_of": ["c"]},
            "monoids": {"c": {"generators": [[1, 0, 0], [0, 1, 0], [1, 1, d], [1, 1, d - 1]]}}})

    @pytest.mark.parametrize("command", ["classify", "normalize"])
    def test_refused_with_the_estimate(self, capsys, tmp_path, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, self.model(tmp_path, 10**4), "--format", "machine")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == ("torf: the generators of the strata on cone[(0, 1, 0); (1, 0, 0);"
                       " (1, 1, 10000)] would list 10000 parallelepiped points; the limit is 1000\n")

    def test_under_the_limit_runs(self, capsys, tmp_path):
        code, out, _err = run(capsys, "normalize", self.model(tmp_path, 10**3), "--format", "machine")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["already_normal"] is False
        assert sorted(res["cones"][-1]["generators"]) == sorted(
            [["0", "1", "0"], ["1", "0", "0"]] + [["1", "1", str(k)] for k in range(1, 1001)])


class TestExactExtraction:
    """A seminormalization generator outside any small box: (10, 1)."""

    def test_classify_not_seminormal(self, capsys, tmp_path):
        path = write_model(tmp_path, WIDE_MODEL)
        code, out, _err = run(capsys, "classify", path, "--format", "machine")
        assert code == 0
        assert json.loads(out)["results"]["seminormal"] is False
        _code, out, _err = run(capsys, "classify", path)
        assert "seminormal: no" in out

    def test_normalize(self, capsys, tmp_path):
        path = write_model(tmp_path, WIDE_MODEL)
        code, out, err = run(capsys, "normalize", path, "--format", "machine")
        assert code == 0, err
        res = json.loads(out)["results"]
        assert res["already_normal"] is False
        top = max(res["cones"], key=lambda c: c["cone"]["dim"])
        assert top["generators"] == [["0", "1"], ["10", "1"], ["20", "0"]]

    def test_degree_bound_option_rejected(self, capsys, tmp_path):
        path = write_model(tmp_path, dict(WIDE_MODEL, options={"degree_bound": 4}))
        code, _out, err = run(capsys, "classify", path)
        assert code == 1
        assert "unknown option keys" in err


class TestModelOptions:
    """Model-file options follow the rules of the matching arguments."""

    def test_negative_box_rejected(self, capsys, tmp_path):
        path = write_model(tmp_path, dict(WIDE_MODEL, options={"box": -1}))
        for command in ("betti", "forms", "classify"):
            code, out, err = run(capsys, command, path)
            assert code == 1
            assert out == ""
            assert err == "torf: options.box must be >= 0, got -1\n"

    def test_zero_box_accepted(self, capsys, tmp_path):
        doc = dict(WIDE_MODEL, monoids={"c": "saturated"}, options={"box": "0"})
        code, out, err = run(capsys, "betti", write_model(tmp_path, doc))
        assert code == 0, err
        assert "(box-truncated(0)): 1, 0, 0" in out

    @pytest.mark.parametrize("fan", [[], {"face_closure_of": []}])
    def test_empty_fan_rejected(self, capsys, tmp_path, fan):
        path = write_model(tmp_path, dict(WIDE_MODEL, fan=fan))
        code, out, err = run(capsys, "validate", path)
        assert code == 1
        assert out == ""
        assert err == "torf: fan must list at least one cone\n"

    def test_empty_pair_rejected(self, capsys, tmp_path):
        path = write_model(tmp_path, dict(WIDE_MODEL, pairs={"p": []}))
        code, _out, err = run(capsys, "validate", path)
        assert code == 1
        assert err == "torf: pair 'p' must list at least one cone name\n"

    def test_two_monoids_on_one_cone_rejected(self, capsys, tmp_path):
        doc = {
            "schema": SCHEMA, "ambient_rank": "1",
            "cones": {"a": [["1"]], "b": [["1"]], "z": []},
            "fan": ["a", "z"],
            "monoids": {"a": {"generators": [["2"], ["3"]]}, "b": {"generators": [["1"]]}},
        }
        code, out, err = run(capsys, "validate", write_model(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "'a' and 'b' are the same cone" in err

    def test_char_option_rejected(self, capsys, tmp_path):
        path = write_model(tmp_path, dict(WIDE_MODEL, options={"char": 2}))
        code, _out, err = run(capsys, "classify", path)
        assert code == 1
        assert err.count("\n") == 1
        assert "unknown option keys: ['char']" in err

    def test_saturated_key_named(self, capsys, tmp_path):
        """The string "saturated" is a monoid spec of its own, not a key of one."""
        path = write_model(tmp_path, dict(WIDE_MODEL, monoids={"c": {"saturated": True}}))
        code, out, err = run(capsys, "validate", path)
        assert code == 1
        assert out == ""
        assert err == "torf: unknown monoid keys: ['saturated']\n"


class TestPairNotASubfan:
    """A pair whose cone is not in the fan is an invalid model."""

    MODEL = {
        "schema": SCHEMA, "ambient_rank": "2",
        "cones": {"q": [["1", "0"], ["0", "1"]], "w": [["-1", "0"]]},
        "fan": {"face_closure_of": ["q"]}, "pairs": {"bad": ["w"]},
    }

    def test_validate_rejects(self, capsys, tmp_path):
        path = write_model(tmp_path, self.MODEL)
        code, out, _err = run(capsys, "validate", path, "--format", "machine")
        assert code == 2
        assert json.loads(out)["results"] == {"valid": False, "error": "NotASubfan"}

    @pytest.mark.parametrize("argv", [
        ("forms", "--pair", "bad"),
        ("betti", "--pair", "bad", "--theoretical"),
    ])
    def test_commands_reject(self, capsys, tmp_path, argv):
        path = write_model(tmp_path, self.MODEL)
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("torf: NotASubfan: ")


class TestPinnedErrorPaths:
    """Generation on a cone with a lineality, and a pair whose face closure is
    not in the fan and is no fan, give these outputs."""

    LINE = {"schema": SCHEMA, "ambient_rank": "1", "cones": {"l": [["1"], ["-1"]]},
            "fan": {"face_closure_of": ["l"]}}
    NOT_A_FAN = {
        "schema": SCHEMA, "ambient_rank": "2",
        "cones": {"q": [["1", "0"], ["0", "1"]], "b": [["1", "1"], ["-1", "1"]]},
        "fan": {"face_closure_of": ["q"]}, "pairs": {"bad": ["q", "b"]},
    }
    OVERLAP = ("BadIntersection: cones do not intersect along a common face "
               "(witness point (0, 1))")

    def line(self, tmp_path, gens):
        return write_model(tmp_path, dict(self.LINE, monoids={"l": {"generators": gens}}))

    def test_units_not_generating_the_line(self, capsys, tmp_path):
        path = self.line(tmp_path, [["1"]])
        code, out, err = run(capsys, "validate", path)
        assert (code, err) == (2, "")
        assert out == ("torf validate\ninvalid: GenerationFailure: monoid does not "
                       "generate its assigned cone: cone[+-(1)]\n")
        code, out, _err = run(capsys, "validate", path, "--format", "machine")
        assert code == 2
        assert json.loads(out)["results"] == {"valid": False, "error": "GenerationFailure"}

    @pytest.mark.parametrize("fan", ["q", "r"])
    def test_restricted_monoid_not_generating(self, capsys, tmp_path, fan):
        """A monoid missing a ray of its cone is reported on that cone, not
        when it is restricted to the cone's faces, also when the cone is not
        in the fan and only lends the monoid to its face r."""
        path = write_model(tmp_path, {
            "schema": SCHEMA, "ambient_rank": "2",
            "cones": {"q": [["1", "0"], ["0", "1"]], "r": [["1", "0"]]},
            "fan": {"face_closure_of": [fan]},
            "monoids": {"q": {"generators": [["1", "0"], ["1", "1"]]}}})
        code, out, err = run(capsys, "validate", path)
        assert (code, err) == (2, "")
        assert out == ("torf validate\ninvalid: GenerationFailure: monoid does not "
                       "generate its assigned cone: cone[(0, 1); (1, 0)]\n")
        code, out, _err = run(capsys, "validate", path, "--format", "machine")
        assert code == 2
        assert json.loads(out)["results"] == {"valid": False, "error": "GenerationFailure"}

    def test_units_generating_the_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", self.line(tmp_path, [["2"], ["-3"]]))
        assert (code, err) == (0, "")
        assert out == ("torf validate\nvalid monoidal complex with 1 cones\n"
                       "  cone[+-(1)]: generators (-3), (2)\n")

    def test_pair_closure_no_fan(self, capsys, tmp_path):
        path = write_model(tmp_path, self.NOT_A_FAN)
        code, out, err = run(capsys, "validate", path)
        assert (code, out, err) == (2, f"torf validate\ninvalid: {self.OVERLAP}\n", "")
        code, out, _err = run(capsys, "validate", path, "--format", "machine")
        assert code == 2
        assert json.loads(out)["results"] == {"valid": False, "error": "BadIntersection",
                                              "witness": ["0", "1"]}
        code, out, err = run(capsys, "forms", path, "--pair", "bad")
        assert (code, out, err) == (2, "", f"torf: {self.OVERLAP}\n")


class TestArguments:
    """Bad arguments exit 1 with one line, before any computation."""

    @pytest.mark.parametrize("argv,needle", [
        (("classify", "--char", "4"), "characteristic must be 0 or prime, got 4"),
        (("normalize", "--mode", "wn", "--char", "4"), "characteristic must be 0 or prime, got 4"),
        (("forms", "--p", "-2"), "must be >= 0, got -2"),
        (("betti", "--box", "-1"), "must be >= 0, got -1"),
        (("betti", "--box", "x"), "invalid literal"),
        (("normalize", "--char", "2", "--char", "3"), "normalize takes one --char"),
        (("classify", "--char", "561"), "characteristic must be 0 or prime, got 561"),
        (("classify", "--char", str(10**25)), f"characteristic {10**25} is too large"),
    ])
    def test_rejected(self, capsys, tmp_path, argv, needle):
        path = write_fixture(capsys, tmp_path, "pinch")
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("torf: ")
        assert needle in err

    def test_file_is_a_path_except_for_fixtures(self, capsys, monkeypatch, tmp_path):
        # only `fixtures` takes a name; the help says so, and a name elsewhere is a path
        monkeypatch.chdir(tmp_path)
        code, out, _err = run(capsys, "--help")
        assert code == 0
        out = " ".join(out.split())
        assert "model file or '-' for stdin; for fixtures, a fixture name" in out
        code, out, err = run(capsys, "validate", "pinch")
        assert (code, out) == (1, "")
        assert err.startswith("torf: cannot read pinch")

    @pytest.mark.parametrize("argv", [
        ("classify", "--char", "2", "--char", "3"),
        ("normalize", "--mode", "wn", "--char", "2", "--format", "machine"),
        ("betti", "--box", "2", "--pair", "boundary"),
        ("forms", "--p", "1", "--box", "2"),
    ])
    def test_options_before_or_after_the_file(self, capsys, tmp_path, argv):
        path = write_fixture(capsys, tmp_path, "pinch-pair")
        after = run(capsys, argv[0], path, *argv[1:])
        before = run(capsys, *argv, path)
        assert after[0] == 0, after[2]
        assert before == after


class TestInternalFault:
    def test_failed_revalidation_exits_three(self, capsys, tmp_path, monkeypatch):
        # a normalization that returns the trivial monoid breaks the
        # generation axiom of the computed complex
        monkeypatch.setattr(torf.complexes, "from_strata",
                            lambda strat: AffineMonoid.make(strat.cone.ambient_rank, []))
        path = write_fixture(capsys, tmp_path, "pinch")
        for argv in (("normalize",), ("normalize", "--mode", "wn", "--char", "2")):
            code, out, err = run(capsys, argv[0], path, *argv[1:])
            assert code == 3
            assert out == ""
            assert err.startswith("torf: internal postcondition failed: ")


class TestNormalize:
    def test_pinch_wn_two(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "pinch")
        code, out, _err = run(
            capsys, "normalize", path,
            "--mode", "wn", "--char", "2", "--format", "machine",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["already_normal"] is False
        top = max(res["cones"], key=lambda c: c["cone"]["dim"])
        assert sorted(top["generators"]) == [["0", "1"], ["1", "0"]]

    def test_sn_of_numeric_semigroup(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "numeric-semigroup-2-3")
        code, out, _err = run(capsys, "normalize", path, "--mode", "sn",
                              "--format", "machine")
        assert code == 0
        res = json.loads(out)["results"]
        top = max(res["cones"], key=lambda c: c["cone"]["dim"])
        assert top["generators"] == [["1"]]

    def test_already_normal(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "affine-2")
        code, out, _err = run(capsys, "normalize", path, "--format", "machine")
        assert code == 0
        assert json.loads(out)["results"]["already_normal"] is True


class TestBetti:
    @pytest.mark.parametrize("name,expected", [
        ("torus-1", ["1", "1"]),
        ("torus-2", ["1", "2", "1"]),
        ("affine-2", ["1", "0", "0"]),
        ("normal-crossings-2-1", ["1", "0", "0"]),
    ])
    def test_values(self, capsys, tmp_path, name, expected):
        path = write_fixture(capsys, tmp_path, name)
        code, out, _err = run(capsys, "betti", path, "--format", "machine")
        assert code == 0
        assert json.loads(out)["results"]["betti"] == expected

    def test_theoretical_agrees(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "torus-2")
        _c, out1, _e = run(capsys, "betti", path, "--format", "machine")
        _c, out2, _e = run(capsys, "betti", path, "--theoretical",
                           "--format", "machine")
        assert json.loads(out1)["results"]["betti"] == json.loads(out2)["results"]["betti"]

    def test_pair(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "affine-2")
        code, out, _err = run(capsys, "betti", path, "--pair", "boundary",
                              "--format", "machine")
        assert code == 0
        assert json.loads(out)["results"]["betti"] == ["0", "0", "0"]

    @pytest.mark.parametrize("command", ["betti", "forms"])
    def test_large_box_refused(self, capsys, tmp_path, command):
        path = write_fixture(capsys, tmp_path, "torus-3")
        code, out, err = run(capsys, command, path, "--box", "100")
        assert code == 1
        assert out == ""
        assert err == ("torf: box 100 in rank 3 spans 201^3, about 8.1e6 degrees; "
                       "the limit is 100000\n")

    def test_large_box_is_work_too_large(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "torus-3")
        with pytest.raises(WorkTooLarge) as e:
            _box(SimpleNamespace(box=100), parse_model(Path(path).read_text()))
        assert e.value.estimate == 201**3

    def test_large_options_box_refused(self, capsys, tmp_path):
        doc = dict(WIDE_MODEL, monoids={"c": "saturated"}, options={"box": "1000"})
        code, _out, err = run(capsys, "betti", write_model(tmp_path, doc))
        assert code == 1
        assert "box 1000 in rank 2 spans 2001^2" in err

    def test_box_under_limit_accepted(self, capsys, tmp_path):
        # 2001^1 degrees, under the limit
        path = write_fixture(capsys, tmp_path, "torus-1")
        code, out, err = run(capsys, "betti", path, "--box", "1000", "--format", "machine")
        assert code == 0, err
        assert json.loads(out)["results"]["betti"] == ["1", "1"]

    def test_theoretical_never_refused(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "torus-3")
        code, out, err = run(capsys, "betti", path, "--theoretical", "--box", "100",
                             "--format", "machine")
        assert code == 0, err
        assert json.loads(out)["results"]["betti"] == ["1", "3", "3", "1"]

    def test_unknown_pair(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "affine-2")
        code, _out, err = run(capsys, "betti", path, "--pair", "nope")
        assert code == 1

    @pytest.mark.parametrize("mode", ["--theoretical", "--box=3"])
    def test_not_weakly_normal_points_to_forms(self, capsys, tmp_path, mode):
        path = write_fixture(capsys, tmp_path, "numeric-semigroup-2-3")
        code, out, err = run(capsys, "betti", path, mode)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("torf: NotWeaklyNormal: ")
        assert "torf forms" in err and "hdiff_general" not in err


class TestOrbitsGermForms:
    def test_orbits(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "affine-2")
        code, out, _err = run(capsys, "orbits", path, "--format", "machine")
        assert code == 0
        rows = json.loads(out)["results"]["orbits"]
        assert len(rows) == 4
        assert sum(1 for r in rows if r["closed_orbit"]) == 1
        assert sum(1 for r in rows if r["is_facet"]) == 1

    def test_germ(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "affine-2")
        # find the name of a one dimensional cone in the emitted model
        _c, out, _e = run(capsys, "fixtures", "affine-2")
        doc = json.loads(out)
        ray = next(n for n, g in doc["cones"].items() if len(g) == 1)
        code, out, _err = run(capsys, "germ", path, "--cone", ray,
                              "--format", "machine")
        assert code == 0
        germ = json.loads(out)["results"]["germ_model"]
        assert len(germ["cones"]) == 2

    def test_germ_requires_cone(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "affine-2")
        code, _out, err = run(capsys, "germ", path)
        assert code == 1

    def test_germ_checks_cone_before_building(self, capsys, tmp_path, monkeypatch):
        """--cone is checked on the parsed model, before the complex is built,
        so an invalid model is not validated to report a missing option."""
        path = write_fixture(capsys, tmp_path, "broken-overlap")
        built = []
        monkeypatch.setattr(torf.cli, "build_complex", built.append)
        for argv, message in [((), "germ requires --cone NAME"),
                              (("--cone", "nope"), "unknown cone name 'nope'")]:
            code, out, err = run(capsys, "germ", path, *argv)
            assert (code, out, err) == (1, "", f"torf: {message}\n")
        assert built == []

    def test_forms_pair(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "affine-2")
        code, out, _err = run(capsys, "forms", path, "--pair", "boundary",
                              "--p", "1", "--box", "2", "--format", "machine")
        assert code == 0
        per = json.loads(out)["results"]["per_degree"]
        assert per["(1, 1)"] == "2"

    def test_large_prime_characteristic(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "pinch")
        code, out, err = run(capsys, "classify", path, "--char", str(10**18 + 3),
                             "--format", "machine")
        assert code == 0, err
        assert json.loads(out)["results"]["weakly_normal"] == {str(10**18 + 3): True}

    def test_forms_general(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "numeric-semigroup-2-3")
        code, out, _err = run(capsys, "forms", path, "--p", "0", "--box", "3",
                              "--format", "machine")
        assert code == 0
        per = json.loads(out)["results"]["per_degree"]
        assert per["(1)"] == "1"


class TestDeterminism:
    def test_byte_identical_machine_output(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "pinch")
        _c, out1, _e = run(capsys, "classify", path, "--format", "machine")
        _c, out2, _e = run(capsys, "classify", path, "--format", "machine")
        assert out1 == out2

    def test_digest_is_of_model_text(self, capsys, tmp_path, monkeypatch):
        text = run(capsys, "fixtures", "pinch")[1]
        paths = []
        for name in ("a.json", "b.json"):
            paths.append(tmp_path / name)
            paths[-1].write_text(text)

        def digest(path):
            code, out, err = run(capsys, "orbits", str(path), "--format", "machine")
            assert code == 0, err
            return json.loads(out)["input_digest"]

        assert digest(paths[0]) == digest(paths[1])
        assert digest(paths[0]) == hashlib.sha256(text.encode()).hexdigest()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert digest("-") == digest(paths[0])
        edited = tmp_path / "edited.json"
        edited.write_text(text.replace('"schema"', '"pairs": {}, "schema"'))
        assert digest(edited) != digest(paths[0])

    def test_fixture_emission_stable(self, capsys):
        _c, out1, _e = run(capsys, "fixtures", "normal-crossings-2-2")
        _c, out2, _e = run(capsys, "fixtures", "normal-crossings-2-2")
        assert out1 == out2

    def test_all_broken_fixture_names_emit(self, capsys):
        for name in broken_fixture_names():
            code, out, _err = run(capsys, "fixtures", name)
            assert code == 0
            json.loads(out)


GOLDEN_COMMANDS = (
    ("validate",), ("orbits",), ("classify",), ("normalize",),
    ("normalize", "--mode", "wn", "--char", "2"), ("normalize", "--mode", "wn", "--char", "3"),
    ("betti", "--theoretical"), ("betti", "--box", "3"), ("forms", "--box", "2"),
)
# Model files beyond the fixtures: the complete fans of (P^1)^3 and P^3, and a
# non-simplicial fan with a lineality.  Each names a cone "ray" and a pair "part".
MODELS = Path(__file__).with_name("models")
MODEL_NAMES = sorted(p.stem for p in MODELS.glob("*.json"))
MODEL_COMMANDS = GOLDEN_COMMANDS + (
    ("germ", "--cone", "ray"), ("betti", "--box", "2", "--pair", "part"),
    ("forms", "--box", "1", "--pair", "part"),
)
CLI_DIGESTS = json.loads(Path(__file__).with_name("cli_digests.json").read_text())


def write_fixtures(d):
    """Each good fixture as the model file d/<name>.json."""
    for name in fixture_names():
        with contextlib.redirect_stdout(io.StringIO()) as text:
            main(["fixtures", name])
        (d / f"{name}.json").write_text(text.getvalue())


def golden_digest(d, name, command):
    """The command line, with the fixture name for the file, and the SHA-256
    of its machine stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as text:
        main([command[0], str(d / f"{name}.json"), *command[1:], "--format", "machine"])
    key = " ".join((command[0], name) + command[1:])
    return key, hashlib.sha256(text.getvalue().encode()).hexdigest()


def golden_digests():
    """Every golden digest.  Rewrite cli_digests.json from this only for an
    intended output change: `PYTHONPATH=src python -c "import json, sys;
    sys.path.insert(0, 'tests'); import test_cli;
    print(json.dumps(test_cli.golden_digests(), indent=1))" > tests/cli_digests.json`.
    """
    with tempfile.TemporaryDirectory() as d:
        write_fixtures(Path(d))
        digests = dict(golden_digest(Path(d), name, command)
                       for name in fixture_names() for command in GOLDEN_COMMANDS)
    digests.update(golden_digest(MODELS, name, command)
                   for name in MODEL_NAMES for command in MODEL_COMMANDS)
    return digests


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixtures(d)
    return d


class TestGoldenOutput:
    @pytest.mark.parametrize("command", GOLDEN_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("name", fixture_names())
    def test_machine_stdout_digest(self, fixture_dir, name, command):
        key, digest = golden_digest(fixture_dir, name, command)
        assert digest == CLI_DIGESTS[key]

    @pytest.mark.parametrize("command", MODEL_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_model_stdout_digest(self, name, command):
        key, digest = golden_digest(MODELS, name, command)
        assert digest == CLI_DIGESTS[key]


class TestOneSaturationPass:
    """`normalize --mode wn` p-saturates each distinct stratum lattice once, in
    `wn_family`; its verdict reads `stratum_index`.  Counted in a fresh
    interpreter, and the output is the golden one."""

    def test_p1_cubed(self):
        path, command = str(MODELS / "p1-cubed.json"), ("normalize", "--mode", "wn", "--char", "2")
        script = ("import contextlib, io, json\nimport torf.monoids\nfrom torf.cli import main\n"
                  "calls, real = [], torf.monoids._p_saturation\n"
                  "torf.monoids._p_saturation = lambda *a: calls.append(a) or real(*a)\n"
                  "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                  f"    code = main([{command[0]!r}, {path!r}, *{command[1:]!r}, '--format', 'machine'])\n"
                  "print(json.dumps([code, len(calls), out.getvalue()]))")
        code, calls, out = fresh(script)
        x, _pairs = build_complex(parse_model((MODELS / "p1-cubed.json").read_text()))
        assert code == 0
        assert calls == len(set(torf.complexes.classify(x).values())) == 10
        assert len(x.fan.cones) == 27
        key = " ".join((command[0], "p1-cubed") + command[1:])
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[key]


class TestOneSmithFormPerStratum:
    """`classify` takes each stratum's index once, from one Smith form of its
    basis, for the index column and every p it decides: `stratum_index` is
    memoized by the lattice, so strata equal as lattices share it.  Counted
    in a fresh interpreter, and the output is the golden one."""

    def test_p1_cubed(self):
        path = str(MODELS / "p1-cubed.json")
        script = ("import contextlib, io, json, sys\nfrom torf.cli import main\n"
                  "calls, real = [], sys.modules['torf.linalg'].smith_columns\n"
                  "for m in [m for k, m in sys.modules.items() if k.startswith('torf.')]:\n"
                  "    if getattr(m, 'smith_columns', None) is real:\n"
                  "        m.smith_columns = lambda lat: calls.append(lat) or real(lat)\n"
                  "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                  f"    code = main(['classify', {path!r}, '--format', 'machine'])\n"
                  "print(json.dumps([code, len(calls), len(set(calls)), out.getvalue()]))")
        code, calls, distinct, out = fresh(script)
        x, _pairs = build_complex(parse_model((MODELS / "p1-cubed.json").read_text()))
        strata = torf.complexes.classify(x).values()
        assert code == 0
        assert calls == distinct == len(set(strata)) == 10
        assert len(strata) == 27
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS["classify p1-cubed"]


class TestModelExpandsFacetsOnly:
    """Building and validating a model generates and lists the faces of its
    facets only, and every face monoid is recorded with its face as its cone,
    so locating degrees afterwards runs no double description."""

    RESTRICTIONS = {"p1-cubed": 74, "p3": 28}  # face_restriction calls

    @pytest.mark.parametrize("name", ["p1-cubed", "p3"])
    def test_counted_calls(self, name, monkeypatch):
        calls = {"generates": [], "faces": [], "cone_from_generators": [], "face_restriction": []}

        def counting(module, fname, real):  # records the cone argument
            monkeypatch.setattr(module, fname, lambda *a: calls[fname].append(a[-1]) or real(*a))

        # fresh caches, so that this build does every piece of its own work
        monkeypatch.setattr(torf.monoids, "_GENERATED", {})
        monkeypatch.setattr(torf.monoids, "_MEMBER_CACHE", {})
        monkeypatch.setattr(torf.monoids, "monoid_cone",
                            functools.lru_cache(maxsize=None)(torf.monoids.monoid_cone.__wrapped__))
        monkeypatch.setattr(torf.cones, "faces",
                            functools.lru_cache(maxsize=None)(torf.cones.faces.__wrapped__))
        for module in (torf.cones, torf.monoids, torf.complexes):
            counting(module, "faces", module.faces)
        for module in (torf.model, torf.complexes):
            counting(module, "generates", torf.monoids.generates)
            counting(module, "face_restriction", torf.monoids.face_restriction)
        doc = parse_model((MODELS / f"{name}.json").read_text())
        x, _pairs = build_complex(doc)
        assert set(calls["generates"]) == set(calls["faces"]) == set(x.fan.facets)
        for module in (torf.cones, torf.monoids):
            counting(module, "cone_from_generators", torf.cones.cone_from_generators)
        assert support_box(x, 1)
        assert calls["cone_from_generators"] == []
        # one restriction per (proper face, facet) pair, in complex_validate,
        # and one per fan cone inside an explicit monoid's cone, in build_complex
        explicit = [cone_from_generators(doc.ambient_rank, doc.cone_gens[cname])
                    for cname in doc.monoid_specs]
        covered = [c for c in x.fan if any(is_face_of(c, p) for p in explicit)]
        face_facet_pairs = sum(len(faces(f)) - 1 for f in x.fan.facets)
        assert len(calls["face_restriction"]) == face_facet_pairs + len(covered) \
            == self.RESTRICTIONS[name]

    @pytest.mark.parametrize("argv", [("classify", "--char", "2"), ("betti", "--theoretical"),
                                      ("normalize", "--mode", "wn", "--char", "2")])
    @pytest.mark.parametrize("name", ["p1-cubed", "p3"])
    def test_verdicts_read_the_family(self, name, argv, capsys, monkeypatch):
        """After validation the verdicts read the complex's own lattice family:
        no facet is stratified again, no derived family is checked, and
        `faces` lists the faces of facets only.  `normalize` also restricts
        each facet monoid of its result to the facet's proper faces."""
        x, _pairs = build_complex(parse_model((MODELS / f"{name}.json").read_text()))
        calls = {"faces": [], "face_restriction": [], "check_family": [], "stratify": []}
        monkeypatch.setattr(torf.monoids, "_GENERATED", {})
        monkeypatch.setattr(torf.monoids, "_MEMBER_CACHE", {})
        monkeypatch.setattr(torf.monoids, "monoid_cone",
                            functools.lru_cache(maxsize=None)(torf.monoids.monoid_cone.__wrapped__))
        fresh = functools.lru_cache(maxsize=None)(torf.complexes.is_seminormal_complex.__wrapped__)
        for module in (torf.complexes, torf.derham):
            monkeypatch.setattr(module, "is_seminormal_complex", fresh)
        for module in (torf.cones, torf.monoids, torf.complexes, torf.model, torf.derham,
                       torf.cli):
            for fname, found in calls.items():
                real = getattr(module, fname, None)
                if real is not None:  # records the first argument
                    monkeypatch.setattr(module, fname, lambda *a, real=real, found=found:
                                        found.append(a[0]) or real(*a))
        code, _out, err = run(capsys, *argv[:1], str(MODELS / f"{name}.json"), *argv[1:])
        assert code == 0, err
        assert set(calls["faces"]) <= set(x.fan.facets)
        realized = sum(len(faces(f)) - 1 for f in x.fan.facets) if argv[0] == "normalize" else 0
        assert len(calls["face_restriction"]) == self.RESTRICTIONS[name] + realized
        assert calls["check_family"] == calls["stratify"] == []
