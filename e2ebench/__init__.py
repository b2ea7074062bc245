"""The end-to-end benchmark: workloads, oracle, tracer and checker."""
