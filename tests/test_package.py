"""The package surface, what a command imports at start-up, the names the
benchmark's trace reads, and the value classes measured against the
`dataclasses` behaviour they replace."""

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torf.cli import main
from torf.complexes import stratify
from torf.cones import cone_from_generators
from torf.errors import DimensionMismatch
from torf.fixtures import broken_fixture_names, fixture_names
from torf.linalg import IntMatrix, Sublattice
from torf.model import ModelDoc
from torf.monoids import AffineMonoid, Characteristic

SRC = str(Path(__file__).resolve().parents[1] / "src")
BENCH = str(Path(__file__).resolve().parents[1] / "bench")

# the public names of `torf`, as listed before its imports became lazy
PUBLIC = [
    "AffineMonoid", "BettiTable", "Characteristic", "Cone", "Fan", "GradedForm",
    "IntMatrix", "MonoidalComplex", "RingElem", "StratifiedMonoid", "Sublattice",
    "TorfError", "betti", "classify", "complex_from_lattice_family",
    "complex_from_monoid_subfan", "complex_validate", "cone_from_generators",
    "cone_from_h", "differential", "faces", "fan_validate", "fiber_complex",
    "from_strata", "full_complex", "germ_at", "is_seminormal", "is_weakly_normal",
    "member", "relative_sn", "relative_wn", "ring_mult", "saturation",
    "seminormalization", "sn_complex", "stratify", "support_locate",
    "weak_normalization", "wn_complex",
]
SUBMODULES = ["errors", "linalg", "cones", "monoids", "complexes", "derham"]
HEAVY = ["_hashlib", "dataclasses", "fractions", "torf.derham", "torf.fixtures"]
TESTS = str(Path(__file__).resolve().parent)


def fresh(code):
    """Run `code` in a new interpreter that imports torf from this tree; its
    standard output, parsed as JSON."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(proc.stdout)


class TestStartup:
    """A command loads only the layers it runs."""

    def test_cli_import_is_light(self):
        loaded = fresh(f"import json, sys, torf.cli\n"
                       f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
        assert loaded == []

    def test_import_torf_loads_no_submodule(self):
        loaded = fresh("import json, sys, torf\n"
                       "print(json.dumps(sorted(m for m in sys.modules if m.startswith('torf'))))")
        assert loaded == ["torf"]

    def test_betti_loads_derham(self, capsys, tmp_path):
        assert main(["fixtures", "torus-2"]) == 0
        path = tmp_path / "torus-2.json"
        path.write_text(capsys.readouterr().out)
        script = ("import contextlib, io, json, sys\nfrom torf.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                  f"    code = main(['betti', {str(path)!r}, '--theoretical'])\n"
                  "print(json.dumps([code, out.getvalue(), 'torf.derham' in sys.modules,\n"
                  "                  'fractions' in sys.modules]))")
        code, out, loaded, fractions = fresh(script)
        assert (code, loaded) == (0, True)
        assert "1, 2, 1" in out
        assert not fractions  # no command builds a Fraction


def digest_mismatches(tmp):
    """The fixtures, good and broken, whose `input_digest` is not the SHA-256
    of their model text, read from a file in the directory `tmp` or from
    standard input."""
    wrong = []
    for name in fixture_names() + broken_fixture_names():
        with contextlib.redirect_stdout(io.StringIO()) as text:
            main(["fixtures", name])
        model = text.getvalue()
        path = Path(tmp) / f"{name}.json"
        path.write_text(model)
        want = hashlib.sha256(model.encode()).hexdigest()
        for source in (str(path), "-"):
            stdin, sys.stdin = sys.stdin, io.StringIO(model)
            try:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    main(["validate", source, "--format", "machine"])
            finally:
                sys.stdin = stdin
            if json.loads(out.getvalue())["input_digest"] != want:
                wrong.append([name, source])
    return wrong


class TestDigest:
    """`input_digest` is the SHA-256 of the model text, from the interpreter's
    own SHA-256 or, without it, from hashlib's."""

    def test_every_fixture(self, tmp_path):
        assert digest_mismatches(tmp_path) == []

    def test_without_the_builtin_module(self, tmp_path):
        code = ("import json, sys\nsys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
                f"sys.path.insert(0, {TESTS!r})\nimport hashlib, torf.cli, test_package\n"
                "print(json.dumps([torf.cli.sha256 is hashlib.sha256,"
                f" test_package.digest_mismatches({str(tmp_path)!r})]))")
        assert fresh(code) == [True, []]


class TestNoOpenSSL:
    def test_no_command_loads_hashlib(self, capsys, tmp_path):
        assert main(["fixtures", "pinch"]) == 0
        path = str(tmp_path / "pinch.json")
        Path(path).write_text(capsys.readouterr().out)
        runs = [["validate", path], ["normalize", path], ["classify", path], ["orbits", path],
                ["betti", path], ["germ", path, "--cone", "c1"], ["forms", path],
                ["fixtures", "pinch"]]
        script = ("import contextlib, io, json, sys\nfrom torf.cli import main\nseen = []\n"
                  f"for argv in {runs!r}:\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        code = main(argv + ['--format', 'machine'])\n"
                  "    seen.append([argv[0], code, '_hashlib' in sys.modules])\n"
                  "print(json.dumps(seen))")
        assert fresh(script) == [[argv[0], 0, False] for argv in runs]


class TestTracedNames:
    def test_every_traced_metric_is_present(self):
        # bench/tracing.py reports a metric whose function or cache is gone
        # as null, and the benchmark's result line must carry no null
        code = (f"import json, sys\nsys.path.insert(0, {BENCH!r})\n"
                "from tracing import Tracer, layer_metrics, merge\n"
                "tracer = Tracer()\ntracer.install()\n"
                "print(json.dumps(layer_metrics(merge([tracer.snapshot()]))))")
        metrics = fresh(code)
        assert metrics and [k for k, v in metrics.items() if v is None] == []


class TestLayering:
    """Each layer loads, and names in its imports, no torf module of a later
    layer: linalg, cones, monoids, complexes, derham, then model, fixtures and
    cli.  The imports are read from the source too, so a lazy one inside a
    function counts."""

    LAYERS = ("linalg", "cones", "monoids", "complexes", "derham")

    @pytest.mark.parametrize("layer", LAYERS)
    def test_no_later_layer(self, layer):
        later = self.LAYERS[self.LAYERS.index(layer) + 1:] + ("model", "fixtures", "cli")
        loaded = fresh(f"import json, sys, torf.{layer}\n"
                       f"print(json.dumps([m for m in {later!r} if 'torf.' + m in sys.modules]))")
        tree = ast.parse(Path(SRC, "torf", f"{layer}.py").read_text())
        named = [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in later]
        assert loaded == named == []


class TestConstructionCount:
    """Building fixtures runs the double description only for cones that no
    stored cone describes: faces, saturations, generation checks and boundary
    subfans read what their cones hold."""

    def dual_rays_calls(self, names):
        code = ("import json\nimport torf.cones\nfrom torf.fixtures import fixture\n"
                "calls, real = [], torf.cones.dual_rays\n"
                "torf.cones.dual_rays = lambda *a: calls.append(a) or real(*a)\n"
                f"for name in {names!r}:\n    fixture(name)\n"
                "print(json.dumps(len(calls)))")
        return fresh(code)

    def test_affine_3_once(self):
        assert self.dual_rays_calls(["affine-3"]) == 1

    def test_good_fixtures(self):
        assert self.dual_rays_calls(fixture_names()) <= 16


class TestPackageSurface:
    def test_names_resolve_in_a_fresh_interpreter(self):
        code = ("import json, torf\n"
                f"names = {PUBLIC!r}\n"
                "by_attr = [n for n in names if getattr(torf, n, None) is None]\n"
                "ns = {}\nexec('from torf import *', ns)\n"
                "by_star = [n for n in names if n not in ns]\n"
                "extra = sorted(set(ns) - set(names) - {'__builtins__'})\n"
                f"mods = [m for m in {SUBMODULES!r}\n"
                "        if getattr(torf, m).__name__ != 'torf.' + m]\n"
                "print(json.dumps([by_attr, by_star, extra, mods, sorted(torf.__all__)]))")
        by_attr, by_star, extra, mods, exported = fresh(code)
        assert by_attr == by_star == extra == mods == []
        assert exported == sorted(PUBLIC)

    def test_names_are_the_submodule_objects(self):
        import torf
        import torf.derham
        import torf.monoids

        assert torf.member is torf.monoids.member
        assert torf.betti is torf.derham.betti
        assert "member" in vars(torf)  # resolved once, then cached

    def test_unknown_name(self):
        import torf

        with pytest.raises(AttributeError, match="nope"):
            torf.nope
        with pytest.raises(ImportError):
            exec("from torf import nope", {})

    def test_dir_lists_public_names_and_submodules(self):
        import torf

        listed = dir(torf)
        assert set(PUBLIC + SUBMODULES) <= set(listed)
        assert listed == sorted(listed)


def _fields(x):
    return list(type(x).__annotations__)


def _values(x):
    return tuple(getattr(x, f) for f in _fields(x))


def _twin(x):
    """A frozen dataclass with the same name and fields as x's class."""
    return dataclasses.make_dataclass(type(x).__name__, _fields(x), frozen=True)(*_values(x))


VALUES = {
    "Cone": lambda: cone_from_generators(2, [(1, 0), (1, 2)]),
    "Sublattice": lambda: Sublattice.from_generators(2, [(2, 0), (1, 3)]),
    "IntMatrix": lambda: IntMatrix(2, 3, (1, 2, 3, 4, 5, 6)),
    "AffineMonoid": lambda: AffineMonoid.make(2, [(2, 0), (0, 1), (1, 1)]),
    "Characteristic": lambda: Characteristic(3),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValueClasses:
    def test_hash_is_the_dataclass_hash(self, name):
        x = VALUES[name]()
        assert hash(x) == hash(_values(x)) == hash(_twin(x))
        assert len({x, VALUES[name]()}) == 1

    def test_equality(self, name):
        x = VALUES[name]()
        assert x == VALUES[name]() == type(x)(*_values(x))
        assert x == type(x)(**dict(zip(_fields(x), _values(x))))
        twin = _twin(x)
        assert x != twin and twin != x  # equal fields, different classes

    def test_repr(self, name):
        x = VALUES[name]()
        if name == "Cone":
            assert repr(x) == f"Cone(rank=2, rays={x.rays}, lin=())"
        else:
            assert repr(x) == repr(_twin(x))

    def test_frozen(self, name):
        x = VALUES[name]()
        field = _fields(x)[0]
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert _values(x) == _values(VALUES[name]())


class TestValueClassBehaviour:
    def test_post_init_checks(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionMismatch):
            IntMatrix(rows=1, cols=2, entries=(1,))
        with pytest.raises(ValueError, match="prime"):
            Characteristic(4)
        with pytest.raises(ValueError, match="prime"):
            Characteristic(p=1)

    def test_bad_arguments(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 1)
        with pytest.raises(TypeError):
            IntMatrix(1, 1, (0,), (0,))
        with pytest.raises(TypeError):
            IntMatrix(1, 1, rows=1)
        with pytest.raises(TypeError):
            IntMatrix(1, 1, shape=(0,))

    def test_cached_properties(self):
        lat = Sublattice.from_generators(2, [(2, 0), (1, 3)])
        before = hash(lat)
        assert lat._pivots == lat._pivots
        assert "_pivots" in vars(lat) and hash(lat) == before
        strat = stratify(AffineMonoid.make(2, [(2, 0), (0, 1), (1, 1)]))
        assert strat._table == dict(strat.strata)
        assert "_table" in vars(strat)

    def test_mutable_value_class(self):
        doc = ModelDoc(1, {}, ("list", []), {}, {}, {})
        assert doc == ModelDoc(1, {}, ("list", []), {}, {}, options={})
        doc.options["box"] = 2
        assert doc.options == {"box": 2}
        with pytest.raises(TypeError):
            hash(doc)
