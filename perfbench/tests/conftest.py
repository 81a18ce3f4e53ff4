"""Make the benchmark's modules and the repro package importable."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import env_pin  # noqa: E402  (needs the path above)

env_pin.pin()
