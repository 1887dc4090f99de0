"""The package imports with only its declared dependencies.

``pyproject.toml`` declares numpy alone, so importing the public surface
must not reach scipy. The check runs in a fresh interpreter with a
``sys.meta_path`` hook that makes any scipy import fail.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

BLOCKED_IMPORT = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not a declared dependency")
        return None

sys.meta_path.insert(0, BlockScipy())
import repro, repro.scenario, repro.cli
assert "scipy" not in sys.modules
"""


def run_without_scipy(extra: str = "") -> subprocess.CompletedProcess:
    """Run the blocked import, then ``extra``, in a fresh interpreter."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return subprocess.run(
        [sys.executable, "-c", BLOCKED_IMPORT + extra],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_public_modules_import_without_scipy():
    result = run_without_scipy()
    assert result.returncode == 0, result.stderr


def test_arima_fits_without_scipy():
    result = run_without_scipy(
        "import numpy as np\n"
        "from repro.forecast.arima import ArimaModel\n"
        "model = ArimaModel(p=2, d=1)\n"
        "model.fit(np.cumsum(np.random.default_rng(0).normal(size=200)))\n"
        "assert model.forecast(3).shape == (3,)\n"
    )
    assert result.returncode == 0, result.stderr
