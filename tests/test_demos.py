import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sosre

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(code, ns)
    assert abs(ns["zb"].value - ns["zd"].value) <= 1e-12 * abs(ns["zd"].value)
    assert ns["report"].summary["failed"] == 0


def test_package_exports_the_quickstart_and_the_error_types():
    exported = {name for name, v in vars(sosre).items()
                if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == {
        "ModelParams", "z_bruteforce", "z_determinant", "run_suite",
        "SosError", "InvariantViolation", "NearSingular", "CapExceeded",
        "ParseError", "SamplingExhausted", "IllConditionedWarning",
    }
