"""Benchmark for ssilab: workloads, outside-in tracer, runner and self-test."""
