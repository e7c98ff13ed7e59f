"""The README's code runs.

Each ```python block of ``README.md`` is run in turn in one namespace, as
a reader pasting them into one interpreter session would run them, in a
fresh interpreter with the package on ``PYTHONPATH`` (a block registers
a cost function, which must not leak into other tests).  The runner
tries every block and names each one that raised.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)

RUNNER = """
import json
import sys
import traceback

namespace = {"__name__": "__readme__"}
failed = []
for index, block in enumerate(json.load(sys.stdin)):
    try:
        exec(compile(block, "README block %d" % index, "exec"), namespace)
    except Exception:
        traceback.print_exc()
        failed.append(index)
print(json.dumps(failed), file=sys.stderr)
sys.exit(1 if failed else 0)
"""


def readme_blocks():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        return BLOCK.findall(handle.read())


def test_the_blocks_are_found():
    assert len(readme_blocks()) == 9


def test_every_block_runs_in_order(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", RUNNER],
                          input=json.dumps(readme_blocks()),
                          cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
