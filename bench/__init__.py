"""The repository's benchmark: four calibrated, CPU-bound workloads.

See ``bench/README.md`` for the workloads, the metric definitions and the
measurement method; ``python3 -m bench.run`` is the one entry point.
"""
