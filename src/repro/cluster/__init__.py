"""Deployment substrate: topology lifecycle, gateway, load balancer.

Replaces the paper's Docker Swarm + nginx deployment with in-process
components sharing one event loop — matching the single-core VM setting
of the paper's scalability experiments.
"""

from .balancer import LoadBalancer
from .gateway import Gateway
from .topology import Cluster, ClusterError

__all__ = [
    "Cluster",
    "ClusterError",
    "Gateway",
    "LoadBalancer",
]
