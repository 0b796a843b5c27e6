"""Service benchmark: workloads, span tracing and analysis (see run.py)."""
