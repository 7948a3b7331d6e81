"""The compiled-query cache: parse once, evaluate every tick.

The engine's check loops re-evaluate a fixed set of query strings on every
timer tick — with 100+ parallel strategies that is thousands of evaluations
of at most a few hundred distinct strings.  :func:`compile_query` memoizes
:func:`repro.metrics.query.parse` per query string, so the parser runs once
per distinct query for the lifetime of the process.  The resulting
:data:`~repro.metrics.query.Expression` trees are frozen dataclasses and
safe to share across strategies and event loops.

``evaluate``/``evaluate_scalar`` route string queries through this cache
automatically; hot-path callers (providers, the metrics server) can also
compile up front and pass the expression object directly.
"""

from __future__ import annotations

from .query import Expression, compile_query


def cache_info():
    """Hit/miss statistics of the compiled-query cache."""
    return compile_query.cache_info()


__all__ = ["Expression", "compile_query", "cache_info"]
