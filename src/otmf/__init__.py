"""Continual model merging with optimal-transport-trained task-vector masks."""

__version__ = "0.1.0"

# perfbench's tracer test reads these two from the package
from .sinkhorn import SinkhornConfig, sinkhorn_distance
