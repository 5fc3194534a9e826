"""The repository benchmark: end-to-end and per-layer timing of queries.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; ``perfbench/README.md`` describes the
workloads, the metrics and the layer each metric belongs to.
"""
