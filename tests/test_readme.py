"""The README's library examples run as written."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_readme_python_blocks_run_in_order_in_a_fresh_process():
    """Each block reads the names the blocks before it bind, as a reader
    who pastes them into one session would."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
    assert len(blocks) == 3
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "True 0.0"
