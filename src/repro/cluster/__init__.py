"""Deployment substrate: the gateway in front of the case study.

Replaces the paper's nginx entry point with an in-process component
sharing one event loop — matching the single-core VM setting of the
paper's scalability experiments.
"""

from .gateway import Gateway

__all__ = ["Gateway"]
