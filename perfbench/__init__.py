"""perfbench — the repository's benchmark (see perfbench/README.md).

One command, ``python3 perfbench/run.py``, drives four workloads against
the program's public surfaces only and prints end-to-end and per-layer
metrics by name.  Nothing under ``src/`` imports this package.
"""
