"""Let tests that start `python -m flatcert.cli` find the source tree.

pytest itself imports the package from `src/` through `pythonpath` in
pyproject.toml; child interpreters only see the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
