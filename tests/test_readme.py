"""The README's library example, run as a script."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = """\
((144, 1), (32, 6), (27, 12), (6, 72))
True
eigenbasis
bareiss
{36: 1, 8: 6, 4: 21}
True
(144, 27) 91 91
{144: 1, 27: 12, 32: 6, 6: 72}
"""


def test_the_library_example_runs_and_prints_what_it_says():
    # the one ```python block of the README, in a fresh interpreter with
    # warnings as errors, so a renamed or removed name fails here
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == EXPECTED
