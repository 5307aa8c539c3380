"""Test-process setup: the package from src/, and no SciPy; and the
fixture that counts CDF table builds.

pytest's pythonpath setting only reaches the test process itself; the
command-line tests run `python -m heavytail.cli` in a child process.

heavytail does not depend on SciPy, so the suite runs as if it were not
installed: a None entry in sys.modules makes every `import scipy` raise.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

sys.modules["scipy"] = None


@pytest.fixture
def weights_calls(monkeypatch):
    """(law, thread) of each tabled law's weights call from here on: a law
    computes its weights once, to build its CDF table."""
    from heavytail.abelian import AbelianParams
    from heavytail.rng import PowerLawCutoffParams

    calls = []
    for cls in (PowerLawCutoffParams, AbelianParams):
        def spy(law, weights=cls.weights):
            calls.append((law, threading.current_thread()))
            return weights(law)

        monkeypatch.setattr(cls, "weights", spy)
    return calls
