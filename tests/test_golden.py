"""Golden outputs over CLI_RANGE.

`rootdata.json` holds `hkt --json roots` and `hkt --json catalog`;
`certificates.json` holds the exit code of `hkt --json catalog F r --verify`
and the exact, BLAS-independent fields of each certificate it prints (the
float residuals are left out).

Regenerate both with `PYTHONPATH=src python tests/test_golden.py` and say in
the change why a file moved.
"""

import contextlib
import io
import json
import os

from conftest import CLI_RANGE
from hktlie import cli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
ROOTDATA = os.path.join(GOLDEN_DIR, "rootdata.json")
CERTIFICATES = os.path.join(GOLDEN_DIR, "certificates.json")

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


if __name__ == "__main__":
    for path, build in ((ROOTDATA, rootdata), (CERTIFICATES, certificates)):
        with open(path, "w") as fh:
            json.dump(build(), fh, indent=1, sort_keys=True)
            fh.write("\n")
