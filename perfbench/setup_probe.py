"""Set-up time of one fresh process: import su11, then evaluate one cold cell.

    python3 perfbench/setup_probe.py figures|high-order|oracle

prints {"s": seconds, "ref_s": seconds}: the set-up time by the wall clock
and at the reference speed of speed.py.  The clock starts before su11 (and
numpy) are imported; interpreter start-up is not counted.  The cell is
typical of the workload named.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from su11.model import Params  # noqa: E402

SPEED_SAMPLES = 25
CELLS = {
    "figures": lambda: importlib.import_module("su11.sweeps").QUANTITIES["qcrb"](
        Params(g=1.0, beta=1.0, phi=0.4, m=1, eta=0.7)),
    "high-order": lambda: importlib.import_module("su11.qfi").qfi_ideal(
        Params(g=1.2, beta=1.5, phi=1.0, m=15)).f,
    "oracle": lambda: importlib.import_module("su11.fock").numeric_sensitivity(
        Params(g=0.4, beta=1.0, phi=0.5, m=1), "a"),
}

if __name__ == "__main__":
    CELLS[sys.argv[1]]()
    setup_s = time.perf_counter() - T0
    import statistics  # noqa: E402

    import speed  # noqa: E402

    # the host's speed just after set-up gives set-up time at the reference speed
    loop_s = statistics.median(speed.time_loop() for _ in range(SPEED_SAMPLES))
    print(json.dumps({"s": setup_s, "ref_s": setup_s * speed.LOOP_REF_S / loop_s}))
