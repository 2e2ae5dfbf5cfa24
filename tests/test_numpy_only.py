"""The runtime needs numpy alone: scipy is a test oracle, not a dependency."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# A meta-path finder that refuses every scipy module, installed before
# anything else is imported, so an import of scipy anywhere fails loudly.
_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())
"""


def _last_json_line(body: str, cwd, block_scipy: bool):
    script = (_NO_SCIPY if block_scipy else "") + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_leaves_no_scipy_module(tmp_path):
    loaded = _last_json_line(
        """
        import json, sys
        import cottonkit
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
        """,
        tmp_path,
        block_scipy=False,
    )
    assert loaded == []


def test_kink_checks_and_lift_run_with_scipy_blocked(tmp_path):
    out = _last_json_line(
        """
        import json
        import cottonkit
        import cottonkit.cli
        import cottonkit.suite

        reports = cottonkit.suite.run_checks(1.0, checks=["kink-solver", "kink-convergence", "lift"])
        code = cottonkit.cli.main(["lift", "--potential", "(phi^2-1)^2/4", "--vacua=-1,1", "--out", "lift.csv"])
        with open("lift.csv") as fh:
            rows = fh.read().splitlines()
        print(json.dumps({"reports": {r.check_id: r.passed for r in reports}, "code": code, "rows": len(rows)}))
        """,
        tmp_path,
        block_scipy=True,
    )
    assert out["reports"] == {
        "kink-solver:C=0.25": True,
        "kink-solver:C=1": True,
        "kink-solver:C=4": True,
        "kink-convergence": True,
        "lift-residuals:phi4": True,
        "lift-curvature:phi4": True,
        "lift-catalog-match": True,
        "lift-residuals:sine-gordon": True,
        "lift-curvature:sine-gordon": True,
    }
    assert out["code"] == 0 and out["rows"] == 402
