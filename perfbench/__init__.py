"""Steady end-to-end and per-layer benchmark of the ``repro`` package.

``python3 perfbench/run.py --workload <train|serve|ingest|fleet> --seed N
--seconds S --trace <0|1>`` prints one JSON result line; see README.md.
"""
