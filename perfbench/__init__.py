"""End-to-end and per-layer benchmark of the ``fairpr`` command-line tool.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` explains
the workloads and metrics.
"""
