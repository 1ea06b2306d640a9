"""README's Library example runs against the package as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs_and_gives_the_documented_shapes(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    # the shapes the example's comments state
    checks = "\nprint(exact.shape, mc.value.shape, mc.std_error.shape, len(corners) > 0)\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", block + checks],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(2, 1, 3) (2, 1, 3) (2, 1, 3) True\n"
