"""Standard relational optimizations on the Raven IR.

These are deliberately classical — the paper leans on them ("standard
DB optimizations such as predicate/projection pushdown and join
elimination can be triggered") and the interesting part is that *model*
rewrites enable them: after model-projection pushdown removes every
feature a joined table supplied, ``PruneColumns`` drops the join.

Note Catalyst will also push filters/projections once the plan is
codegen'd; doing it at the IR level matters because (a) join
elimination changes which tables are read at all, and (b) model rules
read filters gathered below predict operators.
"""
from __future__ import annotations

from repro.ir import (
    Col,
    Filter,
    Join,
    PlanNode,
    Predict,
    Project,
    Scan,
    UDFNode,
    Union,
    and_all,
    conjuncts,
)
from repro.ir.plan import Catalog, output_columns, transform_bottom_up
from repro.optimizer.rules import Rule


def _push_filter_once(f: Filter, catalog: Catalog) -> PlanNode:
    """Push one Filter one step down if legal; ``f`` itself otherwise."""
    child = f.child
    if isinstance(child, Filter):  # merge adjacent filters
        return Filter(child.child, and_all(conjuncts(f.predicate) + conjuncts(child.predicate)))
    if isinstance(child, Project):
        # swap when every referenced column is a passthrough projection,
        # except below a pure column-pruning Project over a Scan: that
        # gains nothing, and PruneColumns would put the Project back
        passthrough = {
            n for n, e in child.exprs if isinstance(e, Col) and e.name == n
        }
        if isinstance(child.child, Scan) and len(passthrough) == len(child.exprs):
            return f
        if f.predicate.columns() <= passthrough:
            return Project(Filter(child.child, f.predicate), child.exprs)
        return f
    if isinstance(child, Join):
        # only an inner join lets a conjunct over one side move below it:
        # under an outer join the filter also removes the NULL-padded rows
        if child.how != "inner":
            return f
        left_cols = set(output_columns(child.left, catalog))
        right_cols = set(output_columns(child.right, catalog))
        left_terms, right_terms, keep = [], [], []
        for t in conjuncts(f.predicate):
            cols = t.columns()
            if cols <= left_cols:
                left_terms.append(t)
            elif cols <= right_cols:
                right_terms.append(t)
            else:
                keep.append(t)
        if not left_terms and not right_terms:
            return f
        new_left = Filter(child.left, and_all(left_terms)) if left_terms else child.left
        new_right = Filter(child.right, and_all(right_terms)) if right_terms else child.right
        new_join = child.with_children([new_left, new_right])
        return Filter(new_join, and_all(keep)) if keep else new_join
    if isinstance(child, Predict):
        # a predicate that does not touch the prediction output commutes
        # with the predict operator
        if child.output_col not in f.predicate.columns():
            return child.with_children([Filter(child.child, f.predicate)])
        return f
    if isinstance(child, Union):
        return Union([Filter(c, f.predicate) for c in child.children])
    return f


class FilterPushdown(Rule):
    """Push filters as far down as possible; merge adjacent filters."""

    name = "filter_pushdown"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if isinstance(node, Filter):
            pushed = _push_filter_once(node, catalog)
            if pushed is not node:
                # the push may expose further pushes below
                return transform_bottom_up(pushed, lambda n: self.rewrite(n, catalog))
        return node


def _prune_below_filter(f: Filter, required: set[str] | None, catalog: Catalog) -> Filter:
    """``f`` over its input pruned to ``required`` plus the columns the
    predicate reads."""
    child_req = None if required is None else required | f.predicate.columns()
    return f.with_children([_prune(f.child, child_req, catalog)])


def _prune(node: PlanNode, required: set[str] | None, catalog: Catalog) -> PlanNode:
    """Rewrite ``node`` so it produces (at least) the ``required``
    columns, None meaning all of them. Returns ``node`` itself when
    nothing below it could be pruned."""
    if isinstance(node, Project):
        kept = node.exprs
        if required is not None:
            # keep at least one column for schema sanity
            kept = [(n, e) for n, e in node.exprs if n in required] or node.exprs[:1]
        child, needed = node.child, set().union(*(e.columns() for _, e in kept))
        if isinstance(child, Filter):  # this Project drops what only the Filter read
            child = _prune_below_filter(child, needed, catalog)
        elif not isinstance(child, Scan):  # a Project over a Scan already prunes it
            child = _prune(child, needed, catalog)
        if isinstance(child, Project) and all(isinstance(e, Col) for _, e in kept):
            # collapse: a Project that only selects (or renames) columns
            # of the Project below it is that Project, narrowed
            inner = dict(child.exprs)
            return Project(child.child, [(n, inner[e.name]) for n, e in kept])
        if child is node.child and len(kept) == len(node.exprs):
            return node
        return Project(child, kept)
    if isinstance(node, Filter):
        new = _prune_below_filter(node, required, catalog)
        if required is None:
            return new
        out = output_columns(new, catalog)
        if required < set(out):  # pass on only the required columns
            return Project(new, [(c, Col(c)) for c in out if c in required])
        return new
    if isinstance(node, Predict):
        child_req = None if required is None else (required - {node.output_col}) | set(node.input_cols)
        return node.with_children([_prune(node.child, child_req, catalog)])
    if isinstance(node, Union):
        return node.with_children([_prune(c, required, catalog) for c in node.children])
    if isinstance(node, Join) and required is not None:
        left_cols = set(output_columns(node.left, catalog))
        right_cols = set(output_columns(node.right, catalog))
        right_used = (required & right_cols) - {node.right_on, node.left_on}
        if node.fk_one_to_one and not right_used:
            return _prune(node.left, required, catalog)
        return node.with_children([
            _prune(node.left, (required & left_cols) | {node.left_on}, catalog),
            _prune(node.right, (required & right_cols) | {node.right_on}, catalog),
        ])
    if isinstance(node, Scan):
        schema = catalog.schemas[node.table]
        if required is not None and set(schema) - required:
            cols = [c for c in schema if c in required] or schema[:1]
            return Project(node, [(c, Col(c)) for c in cols])
        return node
    # a UDF's column use is unknown; below an unpruned Join everything
    # is required too
    return node.with_children([_prune(c, None, catalog) for c in node.children])


class PruneColumns(Rule):
    """Top-down required-column analysis: trims projections, collapses a
    column-selecting Project into the Project below it, inserts pruned
    Projects over Scans, and eliminates 1:1 joins whose right side
    contributes nothing but its key."""

    name = "prune_columns"

    def apply(self, plan: PlanNode, catalog: Catalog) -> tuple[PlanNode, bool]:
        # the root's own output is fully required (required=None); pruning
        # starts propagating at the topmost Project/Predict node.
        new = _prune(plan, None, catalog)
        return new, new is not plan


def gather_constraints(node: PlanNode) -> dict:
    """Collect per-column constraints implied for every row *entering*
    ``node``'s parent — i.e. from all filters in ``node``'s subtree,
    stopping at renaming projections. Used by predicate-based pruning."""
    from repro.ir import Constraint, column_constraints

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        for col, c in b.items():
            if col not in out:
                out[col] = c
                continue
            m: Constraint = out[col]
            merged = Constraint(
                lo=max(m.lo, c.lo),
                lo_strict=m.lo_strict if m.lo >= c.lo else c.lo_strict,
                hi=min(m.hi, c.hi),
                hi_strict=m.hi_strict if m.hi <= c.hi else c.hi_strict,
                eq=m.eq if m.eq is not None else c.eq,
            )
            out[col] = merged
        return out

    if isinstance(node, Filter):
        return merge(gather_constraints(node.child), column_constraints(node.predicate))
    if isinstance(node, Project):
        inner = gather_constraints(node.child)
        out = {}
        for n, e in node.exprs:
            if isinstance(e, Col) and e.name in inner:
                out[n] = inner[e.name]
        return out
    if isinstance(node, Join):
        return merge(gather_constraints(node.left), gather_constraints(node.right))
    if isinstance(node, Predict):
        return gather_constraints(node.child)
    if isinstance(node, UDFNode):
        return {}  # UDF may rewrite anything: no guarantees survive
    if isinstance(node, Union):
        return {}  # would need per-branch intersection; stay sound
    return {}
