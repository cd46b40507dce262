"""Serving-stack benchmark: ``python3 perfbench/run.py --help``."""
