"""Dataflow graph structure and interpreter.

A :class:`Graph` is a DAG over named tensors: ``inputs`` are fed at run
time, ``initializers`` are baked-in weights, ``nodes`` compute new
tensors, ``outputs`` name the results. Execution is a topological
interpretation with numpy kernels (``ops.KERNELS``) that drops each
intermediate after its last consumer has run, so a batch holds only
the live tensors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.onnxlite.ops import KERNELS


@dataclass(eq=False)
class Node:
    """One operator application: ``outputs = op_type(*inputs, **attrs)``.

    All our ops are single-output; ``output`` is the produced tensor
    name. ``attrs`` must be JSON-serializable (lists, not arrays).
    """

    op_type: str
    inputs: list[str]
    output: str
    attrs: dict = field(default_factory=dict)


@dataclass(eq=False)
class Graph:
    """A named-tensor dataflow graph."""

    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    nodes: list[Node] = field(default_factory=list)
    initializers: dict[str, np.ndarray] = field(default_factory=dict)
    name: str = "graph"

    # ------------------------------------------------------------ utils
    def producers(self) -> dict[str, Node]:
        return {n.output: n for n in self.nodes}

    def toposorted(self) -> list[Node]:
        """Topological order of nodes (stable; raises on cycles or
        references to undefined tensors)."""
        return [n for n, _ in self._schedule()]

    def _schedule(self) -> list[tuple[Node, tuple[str, ...]]]:
        """Topological order, each node paired with the intermediates
        whose last use it is (``run`` drops them once it has run).
        Cached per node-list identity and outputs — sessions re-run the
        same graph thousands of times."""
        cached = self.__dict__.get("_schedule_cache")
        if cached is not None and cached[0] is self.nodes and cached[1] == self.outputs:
            return cached[2]
        avail = set(self.inputs) | set(self.initializers)
        remaining = list(self.nodes)
        ordered: list[Node] = []
        while remaining:
            progress = False
            still: list[Node] = []
            for n in remaining:
                if all(i in avail for i in n.inputs):
                    ordered.append(n)
                    avail.add(n.output)
                    progress = True
                else:
                    still.append(n)
            if not progress:
                missing = {
                    i for n in still for i in n.inputs if i not in avail
                } - {n.output for n in still}
                raise ValueError(
                    f"graph has a cycle or undefined tensors: {sorted(missing)}"
                )
            remaining = still
        last_use: dict[str, int] = {}
        for k, n in enumerate(ordered):
            last_use[n.output] = k  # an unread intermediate dies at once
            for i in n.inputs:
                last_use[i] = k
        release: list[list[str]] = [[] for _ in ordered]
        for n in ordered:
            if n.output not in self.outputs:
                release[last_use[n.output]].append(n.output)
        schedule = [(n, tuple(r)) for n, r in zip(ordered, release)]
        self.__dict__["_schedule_cache"] = (self.nodes, list(self.outputs), schedule)
        return schedule

    def validate(self) -> None:
        """Check structural invariants: unique tensor names, known ops,
        defined outputs, acyclicity."""
        names = list(self.initializers) + list(self.inputs) + [n.output for n in self.nodes]
        dupes = {x for x in names if names.count(x) > 1}
        if dupes:
            raise ValueError(f"duplicate tensor names: {sorted(dupes)}")
        for n in self.nodes:
            if n.op_type not in KERNELS:
                raise ValueError(f"unknown op_type {n.op_type!r}")
        defined = set(names)
        for o in self.outputs:
            if o not in defined:
                raise ValueError(f"undefined graph output {o!r}")
        self.toposorted()

    # -------------------------------------------------------------- run
    def run(self, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Execute the graph on ``feeds`` (one array per graph input).
        Returns ``{output name: array}``."""
        env: dict[str, np.ndarray] = dict(self.initializers)
        for name in self.inputs:
            if name not in feeds:
                raise KeyError(f"missing input {name!r}")
            env[name] = np.asarray(feeds[name])
        for node, dead in self._schedule():
            env[node.output] = KERNELS[node.op_type](
                [env[i] for i in node.inputs], node.attrs
            )
            for t in dead:
                del env[t]
        return {o: env[o] for o in self.outputs}

    def n_ops(self) -> int:
        return len(self.nodes)

    def pretty(self) -> str:
        lines = [f"graph {self.name}  inputs={self.inputs}  outputs={self.outputs}"]
        for n in self.toposorted():
            lines.append(f"  {n.output} = {n.op_type}({', '.join(n.inputs)}) {n.attrs or ''}")
        return "\n".join(lines)
