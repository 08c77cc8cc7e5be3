"""System assembly: clusters, the heterogeneous CMP, and workloads."""
