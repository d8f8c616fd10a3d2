"""Cascade DAGs -> diffusion trees via the latest-parent rule.

Each node keeps exactly one parent: the candidate with the largest adoption
time (ties broken toward the lexicographically smallest id). Citations only
point backward in time, so the result is always a tree rooted at the cascade
root, with levels defined by distance from the root.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cascades import Cascade
from .errors import MalformedCascadeError, TimeViolationError


@dataclass(frozen=True)
class CascadeTree:
    root: str
    root_time: int
    window_T: int
    parent: dict[str, str]          # node -> chosen parent; root absent
    adoption_time: dict[str, int]   # every node incl. root (root at 0)
    children: dict[str, list[str]]  # insertion order = (time, id) of the child
    levels: tuple[tuple[str, ...], ...]  # levels[k-1] = nodes at distance k, (time, id) order
    source_edges: int               # candidate-edge count of the source DAG

    @property
    def size(self) -> int:
        return len(self.adoption_time)


def to_tree(cascade: Cascade) -> CascadeTree:
    """Pick each node's latest-adopted candidate as its single parent."""
    times: dict[str, int] = {cascade.root: 0}
    for node in cascade.nodes:
        if node.id in times:
            raise MalformedCascadeError(f"duplicate node id {node.id!r}")
        times[node.id] = node.time

    parent: dict[str, str] = {}
    source_edges = 0
    for node in cascade.nodes:
        source_edges += len(node.parents)
        best: tuple[int, str] | None = None
        for cand in node.parents:
            if cand not in times:
                raise MalformedCascadeError(
                    f"node {node.id!r} lists unknown parent candidate {cand!r}"
                )
            ct = times[cand]
            if ct >= node.time:
                raise TimeViolationError(
                    f"candidate {cand!r} (t={ct}) does not precede node {node.id!r} (t={node.time})"
                )
            # latest adoption wins; equal times fall back to the smaller id
            if best is None or ct > best[0] or (ct == best[0] and cand < best[1]):
                best = (ct, cand)
        if best is None:
            raise MalformedCascadeError(f"node {node.id!r} has no parent candidates")
        parent[node.id] = best[1]

    children: dict[str, list[str]] = {v: [] for v in times}
    for node in sorted(cascade.nodes, key=lambda n: (n.time, n.id)):
        children[parent[node.id]].append(node.id)

    levels: list[tuple[str, ...]] = []
    frontier = children[cascade.root]
    while frontier:
        # canonical within-level order so downstream encodings are unique
        ordered = tuple(sorted(frontier, key=lambda v: (times[v], v)))
        levels.append(ordered)
        frontier = [c for v in ordered for c in children[v]]

    return CascadeTree(
        root=cascade.root,
        root_time=cascade.root_time,
        window_T=cascade.window_T,
        parent=parent,
        adoption_time=times,
        children=children,
        levels=tuple(levels),
        source_edges=source_edges,
    )


def tree_to_dict(tree: CascadeTree, label=None) -> dict:
    """JSON form mirroring the cascade schema, with a single parent per node."""
    doc = {
        "root": tree.root,
        "root_time": tree.root_time,
        "window_T": tree.window_T,
        "nodes": [
            {"id": v, "t": tree.adoption_time[v], "parent": tree.parent[v]}
            for v in sorted(tree.parent, key=lambda v: (tree.adoption_time[v], v))
        ],
    }
    doc["label"] = None if label is None else {"observed": label.observed_size, "growth": label.growth}
    return doc
