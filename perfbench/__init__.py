"""Repository benchmark: workloads, layer tracing and process ownership."""
