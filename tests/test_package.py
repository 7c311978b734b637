"""The package namespace: each public name resolves, on first access, to the
object its submodule defines."""

import importlib
import os
import subprocess
import sys

import pytest

import hktlie

#: the public names of `hktlie`, by the submodule that they are read from
PUBLIC = {
    "rootsys": ["Root", "RootSystem", "UnsupportedAlgebraError", "basic_root_chain",
                "build_root_system", "coroot", "root_chain"],
    "liealg": ["AlgebraRep", "ConstructionError", "StructureConstants", "build_matrix_rep"],
    "cstruct": ["ComplexStructure", "PairingError", "bismut_residual", "canonical_I",
                "integrability_residual", "nijenhuis_at_origin", "quaternion_residual"],
    "autom": ["Automorphism", "automorphism_from_root", "build_quaternion_triple"],
    "spaces": ["SpaceSpec", "VerificationReport", "build_coset_triple", "classify_family",
               "enumerate_quotients", "required_padding"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_every_public_name_is_listed():
    assert len(NAMES) == 27
    assert sorted(hktlie.__all__) == sorted(name for _, name in NAMES)
    assert set(hktlie.__all__) <= set(dir(hktlie))


@pytest.mark.parametrize("module,name", NAMES)
def test_public_name_is_the_submodule_object(module, name):
    submodule = importlib.import_module(f"hktlie.{module}")
    assert getattr(hktlie, name) is getattr(submodule, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hktlie import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"hktlie.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hktlie.no_such_name
    assert not hasattr(hktlie, "no_such_name")


def test_submodules_resolve_after_a_bare_import():
    """`import hktlie` alone imports no layer, yet `hktlie.cstruct` resolves,
    as it did when the package imported every layer."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    probe = ("import sys, hktlie\n"
             "print('hktlie.cstruct' in sys.modules, hktlie.cstruct.BOUNDS is hktlie.bounds.BOUNDS)")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False", "True"]
