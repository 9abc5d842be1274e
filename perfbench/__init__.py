"""Benchmark of the repro simulator; run ``python3 perfbench/run.py --help``."""
