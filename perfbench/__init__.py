"""The repository benchmark: four simulator workloads, end-to-end host
metrics, output checks and a traced per-layer breakdown.

Run one workload per process with ``python3 perfbench/run.py --workload
NAME --seed N --seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md``.
"""
