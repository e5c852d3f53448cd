"""Benchmark of the egoloc pipeline; run it with `python3 egobench/run.py`."""
