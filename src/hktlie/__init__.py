"""Quaternion triples of complex structures on compact group manifolds.

The package constructs classical root systems, compact-algebra matrix
representations in a root-adapted orthonormal basis and their structure
constants f, then, from f and the root table alone, the canonical complex
structure and its partners J and K.  J is the canonical structure rotated
by Lie-algebra automorphisms, which on each 4x4 block of it is one fixed
pattern with a sign read off f, and K = I J.  It certifies numerically that
the triple satisfies the quaternion algebra, the integrability identity and
the torsion conditions, for group manifolds and their centralizer quotients.
"""

import importlib

__version__ = "0.1.0"

#: the public names, by the submodule that defines them; each one is imported
#: on first access (PEP 562), so `import hktlie` alone loads no numpy
_EXPORTS = {
    "rootsys": ("Root", "RootSystem", "UnsupportedAlgebraError", "basic_root_chain", "coroot",
                "build_root_system", "root_chain"),
    "liealg": ("AlgebraRep", "ConstructionError", "StructureConstants", "build_matrix_rep"),
    "bounds": ("PairingError",),
    "cstruct": ("ComplexStructure", "bismut_residual", "canonical_I", "integrability_residual",
                "nijenhuis_at_origin", "quaternion_residual"),
    "autom": ("Automorphism", "automorphism_from_root", "build_quaternion_triple"),
    "spaces": ("SpaceSpec", "VerificationReport", "build_coset_triple", "classify_family",
               "enumerate_quotients", "required_padding"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE)


def __getattr__(name):
    if name in _MODULE:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
