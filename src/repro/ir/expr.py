"""Predicate/scalar expression language for the Raven IR.

Expressions must serve three masters: SQL generation (``to_sql`` — both
Spark SQL and DuckDB accept the output), column-dependency analysis
(``columns``), and *constraint extraction* (``column_constraints``),
which is what the cross-IR rules consume: a conjunctive predicate yields
per-column intervals / equality bindings that prune decision trees and
fold one-hot blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class Expr:
    def columns(self) -> set[str]:
        raise NotImplementedError

    def to_sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_sql()


@dataclass(repr=False)
class Col(Expr):
    name: str

    def columns(self) -> set[str]:
        return {self.name}

    def to_sql(self) -> str:
        return self.name


@dataclass(repr=False)
class Lit(Expr):
    value: object

    def columns(self) -> set[str]:
        return set()

    def to_sql(self) -> str:
        v = self.value
        if isinstance(v, bool):
            return "TRUE" if v else "FALSE"
        if isinstance(v, str):
            return "'" + v.replace("'", "''") + "'"
        if v is None:
            return "NULL"
        return repr(v)


_CMP_OPS = {"<", "<=", ">", ">=", "=", "!="}


@dataclass(repr=False)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ValueError(f"bad comparison op {self.op!r}")

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def to_sql(self) -> str:
        op = "<>" if self.op == "!=" else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"


@dataclass(repr=False)
class And(Expr):
    terms: list[Expr] = field(default_factory=list)

    def columns(self) -> set[str]:
        return set().union(*(t.columns() for t in self.terms)) if self.terms else set()

    def to_sql(self) -> str:
        return "(" + " AND ".join(t.to_sql() for t in self.terms) + ")"


@dataclass(repr=False)
class Or(Expr):
    left: Expr
    right: Expr

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} OR {self.right.to_sql()})"


@dataclass(repr=False)
class Not(Expr):
    term: Expr

    def columns(self) -> set[str]:
        return self.term.columns()

    def to_sql(self) -> str:
        return f"(NOT {self.term.to_sql()})"


@dataclass(repr=False)
class IsNull(Expr):
    term: Expr

    def columns(self) -> set[str]:
        return self.term.columns()

    def to_sql(self) -> str:
        return f"({self.term.to_sql()} IS NULL)"


def conjuncts(e: Expr | None) -> list[Expr]:
    """Flatten nested ANDs into a conjunct list."""
    if e is None:
        return []
    if isinstance(e, And):
        out: list[Expr] = []
        for t in e.terms:
            out.extend(conjuncts(t))
        return out
    return [e]


def and_all(terms: list[Expr]) -> Expr | None:
    """Rebuild a conjunction (None for empty, bare term for singleton)."""
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return And(terms)


@dataclass
class Constraint:
    """What a conjunctive predicate pins down about one column.

    ``lo``/``hi`` are an interval (with strictness flags) for numeric
    columns; ``eq`` is an exact binding (numeric or categorical).
    Contradictions are not detected here — rules only need soundness
    ("the constraint is implied by the predicate"), not completeness.
    """

    lo: float = -math.inf
    lo_strict: bool = False
    hi: float = math.inf
    hi_strict: bool = False
    eq: object | None = None

    def implies_le(self, t: float) -> bool:
        """Does the constraint guarantee ``col <= t``?"""
        if self.eq is not None and isinstance(self.eq, (int, float)) and not isinstance(self.eq, bool):
            return self.eq <= t
        return self.hi <= t  # sound for both strict and closed upper bounds

    def implies_gt(self, t: float) -> bool:
        """Does the constraint guarantee ``col > t``?"""
        if self.eq is not None and isinstance(self.eq, (int, float)) and not isinstance(self.eq, bool):
            return self.eq > t
        if self.lo_strict:
            return self.lo >= t
        return self.lo > t


def column_constraints(e: Expr | None) -> dict[str, Constraint]:
    """Extract per-column constraints from the conjuncts of ``e`` that
    have shape ``col op literal`` (or ``literal op col``). Conjuncts of
    any other shape are ignored (sound: ignoring a conjunct only loses
    information). OR/NOT terms are ignored entirely for the same reason."""
    out: dict[str, Constraint] = {}
    for term in conjuncts(e):
        if not isinstance(term, Cmp):
            continue
        left, right, op = term.left, term.right, term.op
        if isinstance(right, Col) and isinstance(left, Lit):
            # normalize: lit op col  ->  col flipped-op lit
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
            left, right, op = right, left, flip[op]
        if not (isinstance(left, Col) and isinstance(right, Lit)):
            continue
        c = out.setdefault(left.name, Constraint())
        v = right.value
        numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
        if op == "=":
            c.eq = v
            if numeric:
                c.lo = max(c.lo, float(v))
                c.hi = min(c.hi, float(v))
                c.lo_strict = c.hi_strict = False
        elif numeric:
            fv = float(v)
            if op == "<" and fv <= c.hi:
                c.hi, c.hi_strict = fv, True
            elif op == "<=" and fv < c.hi:
                c.hi, c.hi_strict = fv, False
            elif op == ">" and fv >= c.lo:
                c.lo, c.lo_strict = fv, True
            elif op == ">=" and fv > c.lo:
                c.lo, c.lo_strict = fv, False
        # categorical != is ignored (no pruning value for our rules)
    return out
