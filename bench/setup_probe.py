"""Time one workload set-up in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed> <directory>

Prints the seconds from just before semitop is first imported until the
handles are built and the input files are written into <directory>.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (benchmark code only; semitop is not imported yet)

if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if "semitop" in sys.modules:
        sys.exit("semitop was imported before the clock started")
    t0 = time.perf_counter()
    workloads.SETUPS[name](seed, directory)
    print(f"{time.perf_counter() - t0:.9f}")
