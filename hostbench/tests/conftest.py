"""Make the benchmark modules and the simulator sources importable."""

import sys
from pathlib import Path

HOSTBENCH = Path(__file__).resolve().parents[1]
for path in (HOSTBENCH.parent / "src", HOSTBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
