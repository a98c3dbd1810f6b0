"""graphck benchmark: seeded workloads, answer oracles and a span tracer.

Entry point: ``python3 perfbench/run.py``."""
