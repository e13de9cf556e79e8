"""The repository's end-to-end benchmark: four workloads, one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh process and prints every metric by name and
unit, ending with one JSON result line.  ``--trace 1`` wraps the public
functions at each layer boundary (see :mod:`perfbench.spans`) and reports
per-layer self times instead of the end-to-end metrics.
"""
