"""Cascade DAGs -> diffusion trees via the latest-parent rule.

Each node keeps exactly one parent: the candidate with the largest adoption
time (ties broken toward the lexicographically smallest id). Citations only
point backward in time, so the result is always a tree rooted at the cascade
root, with levels defined by distance from the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import MalformedCascadeError, TimeViolationError

if TYPE_CHECKING:  # cascades imports this module: its reader checks records with to_tree
    from .cascades import Cascade


class TreeShape(NamedTuple):
    edges: int          # tree edges: every node but the root
    max_path: int       # the deepest level's distance from the root
    ave_path: float     # mean distance from the root over non-root nodes; 0.0 for a root alone
    leaves: int         # nodes without children, a lone root included
    ave_degree: float   # 2 * edges / node count


@dataclass(frozen=True)
class CascadeTree:
    root: str
    root_time: int
    window_T: int
    parent: dict[str, str]          # node -> chosen parent; root absent
    adoption_time: dict[str, int]   # every node incl. root (root at 0)
    levels: tuple[tuple[str, ...], ...]  # levels[k-1] = nodes at distance k, (time, id) order
    source_edges: int               # candidate-edge count of the source DAG
    growth: int | None = None       # the source cascade's label; None: unlabeled

    @property
    def size(self) -> int:
        return len(self.adoption_time)

    @property
    def shape(self) -> TreeShape:
        edges = self.size - 1
        depth_sum = sum(k * len(level) for k, level in enumerate(self.levels, 1))
        leaves = self.size - len(set(self.parent.values()))  # nodes that are no one's parent
        return TreeShape(edges, len(self.levels), depth_sum / edges if edges else 0.0, leaves, 2.0 * edges / self.size)


def to_tree(cascade: Cascade) -> CascadeTree:
    """Pick each node's latest-adopted candidate as its single parent, in (time, id) order."""
    times: dict[str, int] = {cascade.root: 0}
    for node in cascade.nodes:
        if node.id in times:
            raise MalformedCascadeError(f"duplicate node id {node.id!r}")
        times[node.id] = node.time

    parent: dict[str, str] = {}  # in (time, id) order of the child
    depth = {cascade.root: 0}
    levels: dict[int, list[str]] = {}  # by depth; a parent adopts earlier, so it is placed first
    for v, t, cands in sorted(cascade.nodes, key=itemgetter(1, 0)):
        best, best_t = None, 0
        for cand in cands:
            ct = times.get(cand)
            if ct is None:
                raise MalformedCascadeError(f"node {v!r} lists unknown parent candidate {cand!r}")
            if ct >= t:
                raise TimeViolationError(
                    f"candidate {cand!r} (t={ct}) does not precede node {v!r} (t={t})"
                )
            # latest adoption wins; equal times fall back to the smaller id
            if best is None or ct > best_t or (ct == best_t and cand < best):
                best, best_t = cand, ct
        if best is None:
            raise MalformedCascadeError(f"node {v!r} has no parent candidates")
        parent[v] = best
        depth[v] = depth[best] + 1
        levels.setdefault(depth[v], []).append(v)

    return CascadeTree(
        root=cascade.root,
        root_time=cascade.root_time,
        window_T=cascade.window_T,
        parent=parent,
        adoption_time=times,
        levels=tuple(map(tuple, levels.values())),
        source_edges=sum(map(len, map(itemgetter(2), cascade.nodes))),
        growth=cascade.growth,
    )


def tree_to_dict(tree: CascadeTree) -> dict:
    """JSON form mirroring the cascade schema, with a single parent per node."""
    return {
        "root": tree.root,
        "root_time": tree.root_time,
        "window_T": tree.window_T,
        "nodes": [
            {"id": v, "t": tree.adoption_time[v], "parent": p} for v, p in tree.parent.items()
        ],
        "label": None if tree.growth is None else {"observed": tree.size - 1, "growth": tree.growth},
    }
