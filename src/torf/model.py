"""Model files: the structured-text input format of the command line tool.

A model file is a JSON document with a fixed schema.  Integers may be written
as JSON numbers or as decimal strings (no precision ceiling); output always
uses decimal strings.  Unknown keys are rejected.
"""

from __future__ import annotations

import json

from .errors import GenerationFailure, ParseError
from .cones import Cone, Fan, cone_from_generators, face_fan_closure, fan_validate, subfan
from .complexes import MonoidalComplex, complex_validate
from .monoids import (
    AffineMonoid,
    StratifiedMonoid,
    cone_lattice_generators,
    face_restriction,
    from_strata,
    generates,
    is_face_of,
)
from .linalg import Sublattice
from .values import value

SCHEMA = "torf-1"

_TOP_KEYS = {"schema", "ambient_rank", "cones", "fan", "monoids", "pairs", "options"}
_OPTION_KEYS = {"box"}
_MONOID_KEYS = {"generators", "strata"}


def _int(v):
    if isinstance(v, bool):
        raise ParseError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            raise ParseError(f"not a decimal integer: {v!r}") from None
    raise ParseError(f"expected an integer, got {v!r}")


def _vector(v, n):
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(f"expected a vector of length {n}, got {v!r}")
    return tuple(_int(x) for x in v)


def _vector_list(v, n):
    if not isinstance(v, list):
        raise ParseError(f"expected a list of vectors, got {v!r}")
    return [_vector(x, n) for x in v]


@value
class ModelDoc:
    """Parsed but not yet mathematically validated model file."""

    ambient_rank: int
    cone_gens: dict  # name -> list of generator vectors
    fan_spec: tuple  # ("list", names) or ("face_closure_of", names)
    monoid_specs: dict  # name -> ("generators", vecs) | ("saturated",) | ("strata", items)
    pair_specs: dict  # name -> list of cone names
    options: dict


def parse_model(text: str) -> ModelDoc:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("model file must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    if doc.get("schema") != SCHEMA:
        raise ParseError(f"unsupported schema: {doc.get('schema')!r} (want {SCHEMA!r})")
    if "ambient_rank" not in doc or "cones" not in doc or "fan" not in doc:
        raise ParseError("model file needs ambient_rank, cones, and fan")
    n = _int(doc["ambient_rank"])
    if n < 0:
        raise ParseError("ambient_rank must be nonnegative")
    if not isinstance(doc["cones"], dict):
        raise ParseError("cones must be an object of named generator lists")
    cone_gens = {}
    for name, gens in doc["cones"].items():
        if not isinstance(name, str):
            raise ParseError("cone names must be strings")
        cone_gens[name] = _vector_list(gens, n)
    fan_raw = doc["fan"]
    if isinstance(fan_raw, list):
        fan_spec = ("list", [_cone_name(x, cone_gens) for x in fan_raw])
    elif isinstance(fan_raw, dict) and set(fan_raw) == {"face_closure_of"}:
        if not isinstance(fan_raw["face_closure_of"], list):
            raise ParseError("face_closure_of must be a list of cone names")
        fan_spec = (
            "face_closure_of",
            [_cone_name(x, cone_gens) for x in fan_raw["face_closure_of"]],
        )
    else:
        raise ParseError("fan must be a list of cone names or {'face_closure_of': [...]}")
    if not fan_spec[1]:
        raise ParseError("fan must list at least one cone")
    monoid_specs = {}
    raw_monoids = doc.get("monoids", {})
    if not isinstance(raw_monoids, dict):
        raise ParseError("monoids must be an object")
    for name, spec in raw_monoids.items():
        if name not in cone_gens:
            raise ParseError(f"monoid assigned to unknown cone {name!r}")
        monoid_specs[name] = _parse_monoid_spec(spec, n)
    pair_specs = {}
    raw_pairs = doc.get("pairs", {})
    if not isinstance(raw_pairs, dict):
        raise ParseError("pairs must be an object")
    for pname, names in raw_pairs.items():
        if not isinstance(names, list) or not names:
            raise ParseError(f"pair {pname!r} must list at least one cone name")
        pair_specs[pname] = [_cone_name(x, cone_gens) for x in names]
    options = {}
    raw_opts = doc.get("options", {})
    if not isinstance(raw_opts, dict):
        raise ParseError("options must be an object")
    unknown = set(raw_opts) - _OPTION_KEYS
    if unknown:
        raise ParseError(f"unknown option keys: {sorted(unknown)}")
    for k, v in raw_opts.items():
        options[k] = _int(v)
    if options.get("box", 0) < 0:
        raise ParseError(f"options.box must be >= 0, got {options['box']}")
    return ModelDoc(n, cone_gens, fan_spec, monoid_specs, pair_specs, options)


def _cone_name(x, cone_gens):
    if not isinstance(x, str):
        raise ParseError(f"cone name must be a string, got {x!r}")
    if x not in cone_gens:
        raise ParseError(f"unknown cone name {x!r}")
    return x


def _parse_monoid_spec(spec, n):
    if spec == "saturated":
        return ("saturated",)
    if not isinstance(spec, dict):
        raise ParseError(f"bad monoid spec {spec!r}")
    unknown = set(spec) - _MONOID_KEYS
    if unknown:
        raise ParseError(f"unknown monoid keys: {sorted(unknown)}")
    if set(spec) == {"generators"}:
        return ("generators", _vector_list(spec["generators"], n))
    if set(spec) == {"strata"}:
        items = []
        if not isinstance(spec["strata"], list):
            raise ParseError("strata must be a list")
        for item in spec["strata"]:
            if not isinstance(item, dict) or set(item) != {"face", "basis"}:
                raise ParseError("each stratum needs exactly the keys face and basis")
            items.append(
                (_vector_list(item["face"], n), _vector_list(item["basis"], n))
            )
        return ("strata", items)
    raise ParseError(f"bad monoid spec {spec!r}")


# ---------------------------------------------------------------------------
# building the complex


def build_fan(doc: ModelDoc, named) -> Fan:
    """The fan of the model, from its name -> cone map `named`."""
    kind, names = doc.fan_spec
    listed = [named[x] for x in names]
    if kind == "face_closure_of":
        return face_fan_closure(doc.ambient_rank, listed)
    return fan_validate(doc.ambient_rank, listed)


def _build_monoid(doc: ModelDoc, name, cone: Cone, spec) -> AffineMonoid:
    n = doc.ambient_rank
    if spec[0] == "saturated":
        return AffineMonoid.make(n, cone_lattice_generators(cone))
    if spec[0] == "generators":
        return AffineMonoid.make(n, spec[1])
    table = {}
    for face_gens, basis in spec[1]:
        f = cone_from_generators(n, face_gens)
        if f in table or not is_face_of(f, cone):
            raise ParseError(f"stratum face {[list(v) for v in face_gens]} of cone {name!r} "
                             + ("is given twice" if f in table else "is not a face of it"))
        table[f] = Sublattice.from_generators(n, basis)
    return from_strata(StratifiedMonoid.make(cone, table))


def build_complex(doc: ModelDoc):
    """Assemble and validate the complex and its pairs; returns (complex, pairs).

    Every explicit monoid must generate its cone (GenerationFailure, fan
    cones first).  A fan cone inside an explicit monoid's cone takes the
    restriction of the explicit monoid on the smallest such cone.  A facet
    inside none takes its saturated monoid (its Hilbert basis), and any other
    cone is left to `complex_validate`, which gives it its first facet's
    restriction: no facet above it has an explicit monoid either, so that is
    its own saturated monoid.
    """
    n = doc.ambient_rank
    named = {name: cone_from_generators(n, g) for name, g in doc.cone_gens.items()}
    fan = build_fan(doc, named)
    explicit, owner = {}, {}
    for name, spec in doc.monoid_specs.items():
        c = named[name]
        if c in owner:
            raise ParseError(f"cones {owner[c]!r} and {name!r} are the same cone; "
                             "only one of them may have a monoid")
        owner[c] = name
        explicit[c] = _build_monoid(doc, name, c, spec)
    for c in sorted(explicit, key=lambda c: (c not in fan, c.sort_key())):
        if not generates(explicit[c], c):  # before restricting it to faces
            raise GenerationFailure(c)
    table, facets = {}, set(fan.facets)
    for c in fan:
        parents = [p for p in explicit if is_face_of(c, p)]  # c itself, if explicit
        if parents:
            table[c] = face_restriction(explicit[min(parents, key=Cone.sort_key)], c)
        elif c in facets:
            table[c] = AffineMonoid.make(n, cone_lattice_generators(c))
    x = complex_validate(n, fan, table)
    pairs = {pname: subfan(fan, [named[c] for c in names])
             for pname, names in doc.pair_specs.items()}
    return x, pairs


# ---------------------------------------------------------------------------
# serialization


def _s(v):
    return str(int(v))


def _vec_out(v):
    return [_s(x) for x in v]


def serialize_model(x: MonoidalComplex, pairs=None) -> dict:
    """Canonical model document for a complex: every cone named and listed."""
    names = {}
    cones_out = {}
    monoids_out = {}
    for i, (c, s) in enumerate(x.assignment):
        name = f"c{i}"
        names[c] = name
        gens = [tuple(v) for v in c.generators]
        cones_out[name] = [_vec_out(v) for v in gens]
        monoids_out[name] = {"generators": [_vec_out(g) for g in s.generators]}
    doc = {
        "schema": SCHEMA,
        "ambient_rank": _s(x.ambient_rank),
        "cones": cones_out,
        "fan": sorted(names.values()),
        "monoids": monoids_out,
    }
    if pairs:
        doc["pairs"] = {
            pname: sorted(names[c] for c in sub) for pname, sub in pairs.items()
        }
    return doc


def model_to_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
