"""Built-in example complexes: tori, affine spaces, the pinch point, numeric
semigroups, normal crossings, and deliberately broken inputs for testing the
validator.
"""

from __future__ import annotations

import re

from .errors import UnknownFixture
from .cones import Fan, cone_from_generators, face_fan_closure, faces, fan_validate, subfan
from .complexes import (
    MonoidalComplex,
    complex_from_monoid_subfan,
    full_complex,
)
from .model import SCHEMA, serialize_model
from .monoids import AffineMonoid, monoid_cone
from .values import value


@value
class FixtureData:
    name: str
    complex: MonoidalComplex
    pairs: dict  # pair name -> Fan
    model: dict = None  # model-file document


def _unit(n, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


def _torus(n) -> MonoidalComplex:
    c = cone_from_generators(n, [_unit(n, i, s) for i in range(n) for s in (1, -1)])
    return full_complex(face_fan_closure(n, [c]))


def _affine(n) -> MonoidalComplex:
    c = cone_from_generators(n, [_unit(n, i) for i in range(n)])
    return full_complex(face_fan_closure(n, [c]))


def _boundary_fan(x: MonoidalComplex) -> Fan:
    """Subfan of all non-maximal cones (the proper faces)."""
    top = max(c.dim for c in x.cones())
    return subfan(x.fan, [c for c in x.cones() if c.dim < top])


def _pinch() -> MonoidalComplex:
    s = AffineMonoid.make(2, [(2, 0), (0, 1), (1, 1)])
    return complex_from_monoid_subfan(s)


def _numeric_semigroup(gens) -> MonoidalComplex:
    s = AffineMonoid.make(1, [(g,) for g in gens])
    return complex_from_monoid_subfan(s)


def _normal_crossings(q, d) -> MonoidalComplex:
    """Union of q coordinate hyperplanes in affine (d+1)-space: orthant facets."""
    n = d + 1
    s = AffineMonoid.make(n, [_unit(n, i) for i in range(n)])
    orthant = monoid_cone(s)
    facets = [next(f for f in faces(orthant) if f.dim == d and not f.contains(_unit(n, i)))
              for i in range(q)]
    return complex_from_monoid_subfan(s, subfan(face_fan_closure(n, [orthant]), facets))


def _axes_cross() -> MonoidalComplex:
    gens = ([(1,)], [(-1,)], [])  # the two half-lines and the origin
    return full_complex(fan_validate(1, [cone_from_generators(1, g) for g in gens]))


def fixture_names():
    """All valid built-in fixtures, in canonical order."""
    return [
        "torus-1", "torus-2", "torus-3",
        "affine-1", "affine-2", "affine-3",
        "pinch", "pinch-pair",
        "power-6-extension",
        "numeric-semigroup-2-3",
        "normal-crossings-2-1", "normal-crossings-2-2", "normal-crossings-3-2",
        "axes-cross",
    ]


def broken_fixture_names():
    return ["broken-missing-face", "broken-overlap", "broken-incompatible"]


def fixture(name: str) -> FixtureData:
    """Build a named fixture; parametrized families accept numeric suffixes."""
    m = re.fullmatch(r"(torus|affine)-(\d+)", name)
    if m:
        n = int(m.group(2))
        if n > 4:  # affine-n has 2^n faces
            raise UnknownFixture(f"{name}: n must be <= 4")
        if m.group(1) == "torus":
            return _pack(name, _torus(n))
        x = _affine(n)
        return _pack(name, x, {"boundary": _boundary_fan(x)} if n >= 1 else {})
    if name == "pinch":
        return _pack(name, _pinch())
    if name == "pinch-pair":
        x = _pinch()
        return _pack(name, x, {"boundary": _boundary_fan(x)})
    m = re.fullmatch(r"power-(\d+)-extension", name)
    if m:
        d = int(m.group(1))
        if d < 2:
            raise UnknownFixture(f"power extension needs d >= 2: {name}")
        return _pack(name, _numeric_semigroup((d,)))
    m = re.fullmatch(r"numeric-semigroup-(\d+)-(\d+)", name)
    if m:
        return _pack(name, _numeric_semigroup((int(m.group(1)), int(m.group(2)))))
    m = re.fullmatch(r"normal-crossings-(\d+)-(\d+)", name)
    if m:
        q, d = int(m.group(1)), int(m.group(2))
        if not 1 <= q <= d + 1:
            raise UnknownFixture(f"normal crossings needs 1 <= q <= d+1: {name}")
        x = _normal_crossings(q, d)
        return _pack(name, x, {"boundary": _boundary_fan(x)})
    if name == "axes-cross":
        return _pack(name, _axes_cross())
    if name in broken_fixture_names():
        return FixtureData(name, None, {}, model=_broken_model(name))
    raise UnknownFixture(f"unknown fixture {name!r}")


def _pack(name, x, pairs=None):
    pairs = pairs or {}
    return FixtureData(name, x, pairs, serialize_model(x, pairs=pairs or None))


def _broken_model(name):
    if name == "broken-missing-face":
        # quadrant listed with the origin only: both rays are missing
        return {
            "schema": SCHEMA,
            "ambient_rank": "2",
            "cones": {
                "quad": [["1", "0"], ["0", "1"]],
                "zero": [],
            },
            "fan": ["quad", "zero"],
            "monoids": {"quad": "saturated"},
        }
    if name == "broken-overlap":
        # two full-dimensional cones sharing interior points
        return {
            "schema": SCHEMA,
            "ambient_rank": "2",
            "cones": {
                "a": [["1", "0"], ["0", "1"]],
                "b": [["1", "1"], ["-1", "1"]],
            },
            "fan": {"face_closure_of": ["a", "b"]},
            "monoids": {"a": "saturated", "b": "saturated"},
        }
    if name == "broken-incompatible":
        # pinch facet over an x-ray monoid that misses (2, 0)
        return {
            "schema": SCHEMA,
            "ambient_rank": "2",
            "cones": {
                "quad": [["1", "0"], ["0", "1"]],
                "xray": [["1", "0"]],
            },
            "fan": {"face_closure_of": ["quad"]},
            "monoids": {
                "quad": {
                    "generators": [["2", "0"], ["0", "1"], ["1", "1"]]
                },
                "xray": {"generators": [["4", "0"]]},
            },
        }
    raise UnknownFixture(f"unknown fixture {name!r}")
