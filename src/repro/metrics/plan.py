"""Cross-check evaluation plans: intern subexpressions, evaluate once.

Many checks active in the same phase share query structure — twenty
canary checks might all contain ``rate(http_requests_total{...}[30s])``
somewhere in their expressions, wrapped in different arithmetic or
aggregations.  Evaluating each check's whole tree independently would
repeat that work once per check.

:class:`Planner` shares it structurally.  Compiled ASTs are frozen
dataclasses, so structurally identical subtrees compare (and hash) equal;
the planner interns every subexpression into a DAG of :class:`PlanNode`\\ s
where each distinct subtree exists once, no matter how many checks
reference it.  Evaluation walks the DAG with a per-node memo stamped
``(at, store.generation)``: within one tick against an unchanged store
every distinct node evaluates exactly once and the result fans out to
every subscribing expression.

One planner exists per store (:func:`planner_for`, weakly keyed);
:class:`~repro.metrics.provider.LocalPrometheusProvider` and the metrics
server both route through it, so checks sharing a store share one plan
regardless of which facade they query through.  The shared
:class:`~repro.core.scheduler.CheckScheduler` completes the picture: it
subscribes every scheduled check's queries up front
(:meth:`~repro.core.checks.MetricCondition.subscribe`) and dispatches
same-deadline ticks as one wave, so an aligned tick of N checks evaluates
each distinct node once.

Observability: ``plan_shared_nodes`` (distinct nodes referenced more than
once) and ``plan_evaluations_saved`` (memo hits, i.e. evaluations that
never ran) surface on the metrics server's ``/healthz``.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from .query import (
    Aggregation,
    BinaryOp,
    Expression,
    VectorSample,
    _combine,
    _eval,
    _reduce,
    compile_query,
)
from .store import RETAIN_LIMIT, MetricStore

#: Distinct subscribed roots a planner interns before starting over.
_ROOT_LIMIT = 4096


class PlanNode:
    """One distinct subexpression in the interned DAG."""

    __slots__ = (
        "expression",
        "children",
        "uses",
        "memo_stamp",
        "memo_value",
        "__weakref__",
    )

    def __init__(
        self, expression: Expression, children: tuple["PlanNode", ...]
    ):
        self.expression = expression
        self.children = children
        #: How many distinct parents/roots reference this node; > 1 means
        #: the node is shared across expressions.
        self.uses = 0
        self.memo_stamp: tuple[float, int] | None = None
        self.memo_value: list[VectorSample] = []


def _child_expressions(expression: Expression) -> tuple[Expression, ...]:
    """Independently-evaluable subexpressions of *expression*.

    Function calls and histogram quantiles are leaves: their range/bucket
    selectors cannot evaluate on their own, so the call itself is the
    smallest shareable unit.
    """
    if isinstance(expression, BinaryOp):
        return (expression.left, expression.right)
    if isinstance(expression, Aggregation):
        return (expression.argument,)
    return ()


class Planner:
    """Interned plan nodes plus the per-instant memo for one store."""

    def __init__(self) -> None:
        self._nodes: dict[Expression, PlanNode] = {}
        self._roots: set[Expression] = set()
        self.node_hits = 0
        self.node_misses = 0

    # -- interning ---------------------------------------------------------

    def intern(self, expression: Expression) -> PlanNode:
        """The canonical node for *expression*, creating the DAG lazily."""
        node = self._nodes.get(expression)
        if node is not None:
            return node
        children = tuple(
            self.intern(child) for child in _child_expressions(expression)
        )
        node = PlanNode(expression, children)
        self._nodes[expression] = node
        return node

    def subscribe(self, expression: Expression) -> PlanNode:
        """Register *expression* as a root (a check query, a server query).

        The first subscription of a root walks its tree bumping each
        node's use count — that is what makes sharing visible: a node with
        ``uses > 1`` serves more than one subscriber.  Re-subscribing the
        same root is free and idempotent.
        """
        if expression in self._roots:
            return self._nodes[expression]
        if len(self._roots) >= _ROOT_LIMIT:
            # Unbounded distinct roots would leak nodes; start over.
            self._nodes.clear()
            self._roots.clear()
        self._roots.add(expression)
        node = self.intern(expression)
        stack = [node]
        while stack:
            current = stack.pop()
            current.uses += 1
            stack.extend(current.children)
        return node

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, store: MetricStore, expression: Expression | str, at: float
    ) -> list[VectorSample]:
        """Evaluate through the shared plan; every distinct node runs once.

        Returns the memoized vector itself — callers must treat it as
        immutable (every in-tree caller only reads it).  A text longer than
        ``RETAIN_LIMIT`` is evaluated outside the plan (no root, no node).
        """
        if isinstance(expression, str):
            if len(expression) > RETAIN_LIMIT:
                return _eval(store, compile_query(expression), at)
            expression = compile_query(expression)
        return self._eval_node(store, self.subscribe(expression), at)

    def evaluate_scalar(
        self, store: MetricStore, expression: Expression | str, at: float
    ) -> float | None:
        vector = self.evaluate(store, expression, at)
        if not vector:
            return None
        return sum(sample.value for sample in vector)

    def _eval_node(
        self, store: MetricStore, node: PlanNode, at: float
    ) -> list[VectorSample]:
        stamp = (at, store.generation)
        if node.memo_stamp == stamp:
            self.node_hits += 1
            return node.memo_value
        self.node_misses += 1
        expression = node.expression
        if isinstance(expression, BinaryOp):
            value = _combine(
                expression.op,
                self._eval_node(store, node.children[0], at),
                self._eval_node(store, node.children[1], at),
            )
        elif isinstance(expression, Aggregation):
            value = _reduce(
                expression.op, self._eval_node(store, node.children[0], at)
            )
        else:
            value = _eval(store, expression, at)
        node.memo_stamp = stamp
        node.memo_value = value
        return value

    # -- observability -----------------------------------------------------

    @property
    def shared_nodes(self) -> int:
        """Distinct nodes serving more than one subscriber."""
        return sum(1 for node in self._nodes.values() if node.uses > 1)

    def cache_info(self) -> dict[str, int]:
        return {
            "roots": len(self._roots),
            "interned_nodes": len(self._nodes),
            "plan_shared_nodes": self.shared_nodes,
            "plan_evaluations_saved": self.node_hits,
            "node_hits": self.node_hits,
            "node_misses": self.node_misses,
        }


_PLANNERS: "WeakKeyDictionary[MetricStore, Planner]" = WeakKeyDictionary()


def planner_for(store: MetricStore) -> Planner:
    """The shared planner of *store* (one per store, created on demand)."""
    planner = _PLANNERS.get(store)
    if planner is None:
        planner = Planner()
        _PLANNERS[store] = planner
    return planner


def subscribe(store: MetricStore, expression: Expression | str) -> None:
    """Pre-register a root with the store's planner (check scheduling)."""
    if isinstance(expression, str):
        expression = compile_query(expression)
    planner_for(store).subscribe(expression)


__all__ = [
    "PlanNode",
    "Planner",
    "planner_for",
    "subscribe",
]
