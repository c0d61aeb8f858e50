"""Set-up probe: a fresh interpreter runs everything before the first
solve_master call of one package and exits there.

    python3 perfbench/probe.py schubert_galois|reference K N

Prints "ready" and the CPU time of this process so far.
"""

import importlib
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

package, k, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sg = importlib.import_module(package)
problem = sg.SimpleSchubertProblem(k, n, (), ())
sg.count_solutions(problem)
sg.random_instance(problem, 7)
print("ready", time.process_time(), flush=True)
os._exit(0)
