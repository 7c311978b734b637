"""Golden root data: `hkt --json roots` and `hkt --json catalog` over CLI_RANGE.

Regenerate with `PYTHONPATH=src python tests/test_golden.py` and say in the
change why the file moved.
"""

import contextlib
import io
import json
import os

from conftest import CLI_RANGE
from hktlie import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "rootdata.json")


def _hkt(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == cli.EXIT_OK, argv
    return buf.getvalue()


def rootdata() -> dict:
    return {f"{f}{r}": {"roots": _hkt("--json", "roots", f"{f}{r}"),
                        "catalog": _hkt("--json", "catalog", f, str(r))}
            for f, r in CLI_RANGE}


def test_root_data_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    fresh = rootdata()
    assert fresh.keys() == golden.keys()
    for name, outputs in fresh.items():
        assert outputs == golden[name], name


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(rootdata(), fh, indent=1, sort_keys=True)
        fh.write("\n")
