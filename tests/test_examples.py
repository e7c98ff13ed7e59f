"""Every example script runs to completion.

Each script in ``examples/`` runs in a fresh interpreter with the
package on ``PYTHONPATH`` and must exit 0.  The scripts assert their own
claims, so a run that exits 0 also checks what the script prints.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")
SCRIPTS = sorted(name for name in os.listdir(EXAMPLES)
                 if name.endswith(".py"))


def test_examples_are_found():
    assert len(SCRIPTS) >= 10


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_exits_0(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(EXAMPLES, script)],
                          cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
