"""Plan-DAG utilities: traversal, bottom-up rewriting, schema
propagation, pretty-printing, and the table catalog."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.ir.ops import Filter, Join, PlanNode, Predict, Project, Scan, UDFNode, Union


@dataclass
class Catalog:
    """What the analyzer/optimizer knows about stored tables: schemas
    and unique keys (key knowledge is what licenses ``fk_one_to_one``
    joins and, later, join elimination)."""

    schemas: dict[str, list[str]] = field(default_factory=dict)
    unique_keys: dict[str, set[str]] = field(default_factory=dict)

    def add_table(self, name: str, columns: list[str], unique: set[str] | None = None):
        self.schemas[name] = list(columns)
        self.unique_keys[name] = set(unique or set())
        return self


def walk(node: PlanNode) -> Iterator[PlanNode]:
    """Post-order traversal."""
    for c in node.children:
        yield from walk(c)
    yield node


def transform_bottom_up(node: PlanNode, fn: Callable[[PlanNode], PlanNode]) -> PlanNode:
    """Rebuild the plan bottom-up, applying ``fn`` at every node. A node
    is copied only when a child changed, so the result ``is node`` unless
    some ``fn`` call returned a new node (the model of Catalyst's
    ``transformUp``)."""
    return fn(node.with_children([transform_bottom_up(c, fn) for c in node.children]))


def output_columns(node: PlanNode, catalog: Catalog) -> list[str]:
    """Schema propagation: the column list each node produces."""
    if isinstance(node, Scan):
        return list(catalog.schemas[node.table])
    if isinstance(node, Project):
        return list(node.output_names)
    if isinstance(node, Join):
        left = output_columns(node.left, catalog)
        right = output_columns(node.right, catalog)
        # joined key columns both survive; duplicate non-key names are a
        # plan construction error we surface early
        dup = (set(left) & set(right)) - {node.left_on, node.right_on}
        if dup:
            raise ValueError(f"ambiguous join columns: {sorted(dup)}")
        return left + [c for c in right if c not in left]
    if isinstance(node, Union):
        return output_columns(node.children[0], catalog)
    if isinstance(node, Predict):
        return output_columns(node.child, catalog) + [node.output_col]
    if isinstance(node, (Filter, UDFNode)):
        # a UDF's output is unknown: assume pass-through (it may add
        # columns; callers that need exactness do not push through UDFs)
        return output_columns(node.child, catalog)
    raise TypeError(f"unknown node {type(node).__name__}")


def pretty(node: PlanNode, indent: int = 0) -> str:
    lines = ["  " * indent + node.label()]
    for c in node.children:
        lines.append(pretty(c, indent + 1))
    return "\n".join(lines)


def count_nodes(node: PlanNode) -> int:
    return sum(1 for _ in walk(node))
