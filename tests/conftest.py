"""Test-process setup: the package from src/, and no SciPy.

pytest's pythonpath setting only reaches the test process itself; the
command-line tests run `python -m heavytail.cli` in a child process.

heavytail does not depend on SciPy, so the suite runs as if it were not
installed: a None entry in sys.modules makes every `import scipy` raise.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

sys.modules["scipy"] = None
