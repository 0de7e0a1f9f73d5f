"""The repository benchmark: four sweep workloads timed end to end and per layer.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, the metrics and the baseline.
"""

#: Environment variables that size native thread pools.  The launcher pins
#: each to 1 before numpy loads: the sweep's own workers are the only
#: parallelism, so the load stays at or below the CPU count.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
