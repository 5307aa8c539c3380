"""Let subprocesses started by the tests import the package from src/.

pytest's pythonpath setting only reaches the test process itself; the
command-line tests run `python -m heavytail.cli` in a child process.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
