"""Benchmark of the memsrs retrieval-time sweeps; `run.py` is the entry point."""
