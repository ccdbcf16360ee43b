"""Put ``src`` on ``PYTHONPATH`` for the interpreters the tests start.

``pythonpath`` in ``pyproject.toml`` makes ``tautsig`` importable inside the
test process; subprocesses such as ``python -m tautsig.cli`` read the
environment instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
