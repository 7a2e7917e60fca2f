"""Exact arithmetic for toric face rings.

Monoidal complexes over integer lattices, their semi- and weak
normalizations, the classification by face-indexed sublattice families, and
Betti numbers of the associated affine varieties via h-differential forms.
All computations are carried out over the integers and rationals; there is
no floating point anywhere.

`import torf` loads no submodule: each public name (and each submodule) is
imported on first use, so a command line run pays only for what it computes.
"""

from importlib import import_module

_EXPORTS = {name: module for module, names in (  # public name -> submodule
    ("errors", "TorfError"),
    ("linalg", "IntMatrix Sublattice"),
    ("cones", "Cone Fan cone_from_generators cone_from_h faces fan_validate"),
    ("monoids", "AffineMonoid Characteristic StratifiedMonoid from_strata member saturation"),
    ("complexes", "MonoidalComplex RingElem classify complex_from_lattice_family"
                  " complex_from_monoid_subfan complex_validate full_complex germ_at"
                  " is_seminormal is_weakly_normal relative_sn relative_wn ring_mult"
                  " seminormalization sn_complex stratify support_locate"
                  " weak_normalization wn_complex"),
    ("derham", "BettiTable GradedForm betti differential fiber_complex"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        found = getattr(import_module("." + _EXPORTS[name], __name__), name)
    elif name in _EXPORTS.values():
        found = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = found
    return found


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS.values()})
