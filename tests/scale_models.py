"""Model documents of the scale models that ROADMAP.md and CHANGES.md time.

- `p1_power(n)`: the complete fan of (P^1)^n, one orthant per sign vector,
  with no explicit monoids.  `p1_power(n, pinch=True)` is the pinch-like
  (P^1)^n: each cone with x_1 >= 0 carries <2 e_1, e_1 + s_2 e_2, s_2 e_2,
  s_3 e_3, ..., s_n e_n> for its signs s_i, as `models/p1-cubed.json` does at
  n = 3.
- `projective(n)`: the complete fan of P^n, the cones on n of the rays
  e_1, ..., e_n and -(e_1 + ... + e_n).
- `cube(n)`: the cones over the faces of [-1, 1]^n, 2n facets with 2^(n-1)
  rays each, non-simplicial from n = 3.
- `hilbert(n)`: the saturated <e_1, e_2, (1, 1, n)>, given by its Hilbert
  basis e_1, e_2 and (1, 1, k) for 1 <= k <= n, on its one cone.
- `strata(n)`: the monoid <e_1, e_2, (1, 1, n), (1, 1, n - 1)>, which has the
  strata of `hilbert(n)`: its cell holds n points.

Run as a script it prints one document, for example

    python tests/scale_models.py cube 5 > cube-5.json
    PYTHONPATH=src python -m torf.cli classify cube-5.json --char 2
"""

import itertools
import json
import sys


def _document(n, cones, monoids=None):
    doc = {"schema": "torf-1", "ambient_rank": n, "cones": cones,
           "fan": {"face_closure_of": list(cones)}}
    if monoids:
        doc["monoids"] = {name: {"generators": gens} for name, gens in monoids.items()}
    return doc


def _unit(n, i, s=1):
    return [s if j == i else 0 for j in range(n)]


def p1_power(n, pinch=False):
    cones, monoids = {}, {}
    for signs in itertools.product((1, -1), repeat=n):
        name = "c" + "".join("+" if s > 0 else "-" for s in signs)
        cones[name] = [_unit(n, i, s) for i, s in enumerate(signs)]
        if pinch and signs[0] > 0:
            s2 = signs[1]
            monoids[name] = [_unit(n, 0, 2), [1, s2] + [0] * (n - 2), _unit(n, 1, s2)] + [
                _unit(n, i, s) for i, s in enumerate(signs) if i > 1]
    return _document(n, cones, monoids)


def projective(n):
    rays = [_unit(n, i) for i in range(n)] + [[-1] * n]
    return _document(n, {f"c{k}": rays[:k] + rays[k + 1:] for k in range(n + 1)})


def cube(n):
    cones = {}
    for i, s in itertools.product(range(n), (1, -1)):
        vertices = itertools.product((1, -1), repeat=n - 1)
        cones[f"x{i + 1}{'+' if s > 0 else '-'}"] = [list(v[:i]) + [s] + list(v[i:])
                                                     for v in vertices]
    return _document(n, cones)


def _one_cone(n, generators):
    return _document(3, {"c": [[1, 0, 0], [0, 1, 0], [1, 1, n]]}, {"c": generators})


def hilbert(n):
    return _one_cone(n, [[1, 0, 0], [0, 1, 0]] + [[1, 1, k] for k in range(1, n + 1)])


def strata(n):
    return _one_cone(n, [[1, 0, 0], [0, 1, 0], [1, 1, n], [1, 1, n - 1]])


MODELS = {"p1": p1_power, "p1-pinch": lambda n: p1_power(n, pinch=True),
          "projective": projective, "cube": cube, "hilbert": hilbert, "strata": strata}


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in MODELS:
        sys.exit(f"usage: python {sys.argv[0]} {{{','.join(MODELS)}}} N")
    print(json.dumps(MODELS[sys.argv[1]](int(sys.argv[2])), indent=1))
