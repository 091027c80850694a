"""Time-to-solution benchmark of timeschur, with layer tracing from outside.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
This package must not import numpy: ``run.py`` pins the BLAS thread
count before numpy loads.
"""
