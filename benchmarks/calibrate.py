"""Fixed reference work: how fast the host runs at this moment.

    python3 benchmarks/calibrate.py

Starts an interpreter, imports numpy, sorts a seeded array and runs a
bytecode loop, the same mix of costs as a rifslab process.  It shares no
code with rifslab, so a change to the program cannot move it; only the
host can.
"""

import numpy as np

values = np.random.default_rng(0).random(400_000)
for _ in range(4):
    np.sort(values)
acc = 0
for i in range(600_000):
    acc += i & 7
