"""The repo benchmark: six workloads, end-to-end metrics, per-layer traced run.

Run with ``python -m benchmarks.suite`` from the repository root; see
``benchmarks/suite/README.md`` for the tables and how to read them.
"""
