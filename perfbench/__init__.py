"""Benchmark of the openschwinger package: three workloads, timed end to end and per layer."""
