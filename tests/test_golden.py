"""Golden outputs over CLI_RANGE.

`rootdata.json` holds `hkt --json roots` and `hkt --json catalog`;
`certificates.json` holds the exit code of `hkt --json catalog F r --verify`
and the exact, BLAS-independent fields of each certificate it prints (the
float residuals are left out).  `structure_constants.json` holds the COO
index triples and values of f_ABC for A3, B3 (vector, and the spinor that
`oracles.build_spinor_rep` builds), C3 and D4, so that f is pinned with its
signs, not only up to a change of basis.

Regenerate all three with `PYTHONPATH=src python tests/test_golden.py` and
say in the change why a file moved.
"""

import contextlib
import io
import json
import os

import numpy as np

import oracles
from conftest import CLI_RANGE
from hktlie import cli, liealg

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
ROOTDATA = os.path.join(GOLDEN_DIR, "rootdata.json")
CERTIFICATES = os.path.join(GOLDEN_DIR, "certificates.json")
STRUCTURE = os.path.join(GOLDEN_DIR, "structure_constants.json")

#: the representations whose f_ABC is pinned entry by entry
STRUCTURE_REPS = (("A", 3, "defining"), ("B", 3, "vector"), ("B", 3, "spinor"),
                  ("C", 3, "defining"), ("D", 4, "vector"))

#: the certificate fields that do not depend on floating-point rounding
EXACT_FIELDS = ("name", "factors", "u1_count", "quotient", "dimension", "padding_required",
                "basic_roots", "automorphisms", "verdict", "message")


def _run(*argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _hkt(*argv) -> str:
    code, out = _run(*argv)
    assert code == cli.EXIT_OK, argv
    return out


def rootdata() -> dict:
    return {f"{f}{r}": {"roots": _hkt("--json", "roots", f"{f}{r}"),
                        "catalog": _hkt("--json", "catalog", f, str(r))}
            for f, r in CLI_RANGE}


def certificates() -> dict:
    out = {}
    for f, r in CLI_RANGE:
        code, text = _run("--json", "catalog", f, str(r), "--verify")
        out[f"{f}{r}"] = {"exit": code,
                          "certificates": [{k: doc[k] for k in EXACT_FIELDS}
                                           for doc in json.loads(text)]}
    return out


def structure_constants() -> dict:
    out = {}
    for f, r, kind in STRUCTURE_REPS:
        rep = oracles.build_spinor_rep() if kind == "spinor" else liealg.build_matrix_rep(f, r)
        assert rep.rep_kind == kind
        sc = rep.structure_constants()
        out[f"{f}{r}_{kind}"] = {"index": sc.index.tolist(), "value": sc.value.tolist()}
    return out


def _check(path, fresh):
    with open(path) as fh:
        golden = json.load(fh)
    assert fresh.keys() == golden.keys()
    for name, outputs in fresh.items():
        assert outputs == golden[name], name


def test_root_data_matches_golden():
    _check(ROOTDATA, rootdata())


def test_certificates_match_golden():
    _check(CERTIFICATES, certificates())


def test_structure_constants_match_golden():
    """The same non-zero entries, and values within 1e-14."""
    with open(STRUCTURE) as fh:
        golden = json.load(fh)
    fresh = structure_constants()
    assert fresh.keys() == golden.keys()
    for name, sc in fresh.items():
        assert sc["index"] == golden[name]["index"], name
        assert np.abs(np.subtract(sc["value"], golden[name]["value"])).max() <= 1e-14, name


if __name__ == "__main__":
    for path, build in ((ROOTDATA, rootdata), (CERTIFICATES, certificates),
                        (STRUCTURE, structure_constants)):
        with open(path, "w") as fh:
            json.dump(build(), fh, indent=1, sort_keys=True)
            fh.write("\n")
