"""Command line front end.

Reads a model file (or standard input), runs one computation, and prints a
deterministic report.  Exit codes: 0 success, 1 usage or parse error,
2 validation failure, 3 internal postcondition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

try:  # the interpreter's own SHA-256, as hashlib's would map OpenSSL's libcrypto
    sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:
    from hashlib import sha256

from .errors import ParseError, TorfError, UnknownFixture, WorkTooLarge
from .cones import cone_from_generators, faces
from .complexes import (
    classify,
    germ_at,
    is_seminormal_complex,
    is_weakly_normal_complex,
    orbits,
    wn_complex,
)
from .linalg import vec_str
from .model import build_complex, model_to_text, parse_model, serialize_model
from .monoids import Characteristic, stratum_index

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

MAX_BOX_DEGREES = 10**5  # largest box, in degrees, that betti/forms enumerate


def _cone_json(c):
    return {
        "rays": [[str(x) for x in r] for r in c.rays],
        "lineality": [[str(x) for x in l] for l in c.lin_basis],
        "dim": c.dim,
    }


def _lattice_json(lat):
    return [[str(x) for x in b] for b in lat.basis_vectors()]


class Report:
    def __init__(self, command):
        self.command = command
        self.digest = None  # of the model text, set by _load
        self.results = {}
        self.diagnostics = []
        self.human_lines = []

    def line(self, text):
        self.human_lines.append(text)

    def emit(self, fmt, out):
        if fmt == "machine":
            body = {
                "command": self.command,
                "input_digest": self.digest,
                "results": self.results,
                "diagnostics": self.diagnostics,
            }
            out.write(json.dumps(body, sort_keys=True, indent=2) + "\n")
        else:
            out.write(f"torf {self.command}\n")
            for l in self.human_lines:
                out.write(l + "\n")
            for d in self.diagnostics:
                out.write(f"! {d}\n")


def _load(path, rep):
    """Parse the model read from `path` (standard input for None or '-'); the
    report's digest is of the text read."""
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ParseError(f"cannot read {path}: {e}") from None
    rep.digest = sha256(text.encode()).hexdigest()
    return parse_model(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"torf: {message}\n")


def _nonnegative(v):
    if v < 0:
        raise ValueError(f"must be >= 0, got {v}")


def _integer(check):
    """Argument type: an integer that `check` accepts (it raises ValueError otherwise)."""
    def integer(text):
        try:
            v = int(text)
            check(v)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return v
    return integer


def _build_parser():
    p = _Parser(
        prog="torf",
        description="Exact computations on toric face rings.",
    )
    p.add_argument("command", choices=[
        "validate", "normalize", "classify", "orbits", "betti",
        "germ", "forms", "fixtures",
    ])
    p.add_argument("file", nargs="?",
                   help="model file or '-' for stdin; for fixtures, a fixture name")
    p.add_argument("--mode", choices=["sn", "wn"], default="sn")
    p.add_argument("--char", action="append", type=_integer(Characteristic), default=None,
                   help="characteristic (repeatable for classify)")
    p.add_argument("--pair", metavar="NAME")
    p.add_argument("--cone", metavar="NAME")
    p.add_argument("--p", type=_integer(_nonnegative), default=0, help="form degree")
    p.add_argument("--box", type=_integer(_nonnegative), default=None)
    p.add_argument("--theoretical", action="store_true")
    p.add_argument("--format", choices=["human", "machine"], default="human")
    return p


def _box(args, doc):
    """The --box bound, else the model's options.box, else 4; refused when
    the box holds more than MAX_BOX_DEGREES degrees."""
    box = args.box if args.box is not None else doc.options.get("box", 4)
    side, n = 2 * box + 1, doc.ambient_rank
    digits = n * math.log10(side)  # of the (2b+1)^n degrees, which may be huge
    if digits > math.log10(MAX_BOX_DEGREES):
        raise WorkTooLarge(f"box {box} in rank {n} spans {side}^{n}, about {10 ** (digits % 1):.1f}"
                           f"e{int(digits)} degrees; the limit is {MAX_BOX_DEGREES}", side**n)
    return box


def _get_pair(pairs, name):
    if name not in pairs:
        raise ParseError(f"unknown pair {name!r}")
    return pairs[name]


def _complex_summary(rep, x):
    rep.results["cones"] = []
    for c, s in x.assignment:
        rep.results["cones"].append({
            "cone": _cone_json(c),
            "generators": [[str(v) for v in g] for g in s.generators],
        })
        rep.line(f"  {c}: generators "
                 + (", ".join(vec_str(g) for g in s.generators) or "(none)"))


def cmd_validate(args, rep):
    doc = _load(args.file, rep)
    try:
        x, pairs = build_complex(doc)
    except (ParseError, WorkTooLarge):  # a model error (e.g. two monoids on one cone), a refusal
        raise
    except TorfError as e:
        rep.results["valid"] = False
        rep.results["error"] = type(e).__name__
        witness = getattr(e, "witness", None)
        if witness is not None:
            rep.results["witness"] = [str(v) for v in witness]
        rep.line(f"invalid: {type(e).__name__}: {e}")
        return EXIT_INVALID
    rep.results["valid"] = True
    rep.results["pairs"] = sorted(pairs)
    rep.line(f"valid monoidal complex with {len(x.cones())} cones")
    _complex_summary(rep, x)
    return EXIT_OK


def cmd_normalize(args, rep):
    doc = _load(args.file, rep)
    x, _pairs = build_complex(doc)
    char = Characteristic((args.char or [0])[0])
    at = char if args.mode == "wn" else Characteristic(0)  # sn is wn at p = 0
    y = wn_complex(x, at)
    already = is_weakly_normal_complex(x, at)
    rep.results["mode"] = args.mode
    rep.results["char"] = str(char.p)
    rep.results["already_normal"] = already
    rep.line(f"mode {args.mode}, characteristic {char.p}")
    rep.line("input already normal" if already else "input was not normal")
    _complex_summary(rep, y)
    family = classify(y)
    below = _faces_in_fan(y.fan)
    rep.results["strata"] = [{
        "cone": _cone_json(c),
        "strata": [{"face": _cone_json(f), "basis": _lattice_json(family[f])} for f in below[c]],
    } for c in y.cones()]
    return EXIT_OK


def _faces_in_fan(fan):
    """Each cone c of the fan -> `faces(c)`, read off the first facet f holding
    it, so that only facets list their faces: a face of f is a face of c iff
    its rays are among c's, and both lists are in `Cone.sort_key` order."""
    below = {}
    for f in fan.facets:
        fs = faces(f)
        for c in fs:
            if c not in below:
                rays = set(c.rays)
                below[c] = [t for t in fs if rays.issuperset(t.rays)]
    return below


def cmd_classify(args, rep):
    doc = _load(args.file, rep)
    x, _pairs = build_complex(doc)
    chars = args.char if args.char else [0, 2, 3, 5]
    family = classify(x)
    rows = []
    for c, lat in sorted(family.items(), key=lambda item: item[0].sort_key()):
        idx = stratum_index(lat)
        rows.append({"cone": _cone_json(c), "basis": _lattice_json(lat), "index": str(idx)})
        rep.line(f"  {c}: index {idx}, basis "
                 + (", ".join(vec_str(b) for b in lat.basis_vectors()) or "0"))
    rep.results["family"] = rows
    sn = is_seminormal_complex(x)
    rep.results["seminormal"] = sn
    rep.line(f"seminormal: {'yes' if sn else 'no'}")
    rep.results["weakly_normal"] = {}
    for p in chars:
        wn = is_weakly_normal_complex(x, Characteristic(p))
        rep.results["weakly_normal"][str(p)] = wn
        rep.line(f"weakly normal (p={p}): {'yes' if wn else 'no'}")
    return EXIT_OK


def cmd_orbits(args, rep):
    doc = _load(args.file, rep)
    x, _pairs = build_complex(doc)
    table = orbits(x)
    rows = []
    for c, lat, is_facet, closed in table.rows:
        rows.append({
            "cone": _cone_json(c),
            "orbit_lattice": _lattice_json(lat),
            "is_facet": is_facet,
            "closed_orbit": closed,
        })
        flags = ", ".join(f for f, keep in
                          (("facet", is_facet), ("closed", closed)) if keep)
        rep.line(f"  {c}: orbit rank {lat.rank}"
                 + (f" [{flags}]" if flags else ""))
    rep.results["orbits"] = rows
    return EXIT_OK


def cmd_betti(args, rep):
    from .derham import betti  # each command imports only the layers it runs

    doc = _load(args.file, rep)
    box = None if args.theoretical else _box(args, doc)
    x, pairs = build_complex(doc)
    subfan = _get_pair(pairs, args.pair) if args.pair else None
    table = betti(x, pair_subfan=subfan, box_bound=box,
                  theoretical=args.theoretical)
    rep.results["betti"] = [str(d) for d in table.dims]
    rep.results["mode"] = table.mode
    rep.line(f"betti numbers ({table.mode}): "
             + ", ".join(str(d) for d in table.dims))
    return EXIT_OK


def cmd_germ(args, rep):
    doc = _load(args.file, rep)
    if args.cone is None:
        raise ParseError("germ requires --cone NAME")
    if args.cone not in doc.cone_gens:
        raise ParseError(f"unknown cone name {args.cone!r}")
    x, _pairs = build_complex(doc)
    t = cone_from_generators(doc.ambient_rank, doc.cone_gens[args.cone])
    g = germ_at(x, t)
    rep.results["germ_model"] = serialize_model(g)
    rep.line(f"germ at {t}: {len(g.cones())} cones")
    _complex_summary(rep, g)
    return EXIT_OK


def cmd_forms(args, rep):
    from .derham import hdiff_general, pair_dims

    doc = _load(args.file, rep)
    box = _box(args, doc)
    x, pairs = build_complex(doc)
    p = args.p
    rep.results["p"] = p
    rep.results["box"] = str(box)
    header = f"p={p}, box {box}"
    if args.pair:
        per_degree, decomposition = pair_dims(x, _get_pair(pairs, args.pair), p, box)
        rep.results["decomposition"] = [
            {
                "cone": _cone_json(c),
                "degrees": {vec_str(m): str(d) for m, d in sorted(block.items())},
            }
            for c, block in sorted(decomposition.items(), key=lambda kv: kv[0].sort_key())
        ]
        header = f"pair {args.pair!r}, {header}"
    else:
        per_degree = hdiff_general(x, p, box)
    rep.results["per_degree"] = {vec_str(m): str(d) for m, d in sorted(per_degree.items())}
    rep.line(f"{header}: total dimension {sum(per_degree.values())}")
    for m, d in sorted(per_degree.items()):
        rep.line(f"  {vec_str(m)}: {d}")
    return EXIT_OK


def cmd_fixtures(args, rep):
    from .fixtures import broken_fixture_names, fixture, fixture_names

    if args.file is None:
        raise UnknownFixture(
            "fixtures requires a name; known: "
            + ", ".join(fixture_names() + broken_fixture_names())
        )
    fx = fixture(args.file)
    sys.stdout.write(model_to_text(fx.model))
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "normalize": cmd_normalize,
    "classify": cmd_classify,
    "orbits": cmd_orbits,
    "betti": cmd_betti,
    "germ": cmd_germ,
    "forms": cmd_forms,
    "fixtures": cmd_fixtures,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_intermixed_args(argv)
        if args.char and len(args.char) > 1 and args.command != "classify":
            parser.error(f"{args.command} takes one --char; only classify takes several")
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    rep = Report(args.command)
    try:
        code = _COMMANDS[args.command](args, rep)
    except (ParseError, UnknownFixture, WorkTooLarge) as e:
        sys.stderr.write(f"torf: {e}\n")
        return EXIT_USAGE
    except AssertionError as e:
        sys.stderr.write(f"torf: internal postcondition failed: {e}\n")
        return EXIT_INTERNAL
    except TorfError as e:
        sys.stderr.write(f"torf: {type(e).__name__}: {e}\n")
        return EXIT_INVALID
    if args.command != "fixtures":
        rep.emit(args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
