"""Layered benchmark for paretobo: workloads, correctness checks and tracing."""
