"""R*-tree: Beckmann et al.'s improved R-tree.

Used in the index-choice ablation (``benchmarks/bench_ablation_indexes.py``):
the paper argues that the traditional method's weakness is the *candidate
set*, not the filter — so even a better-shaped tree should not close the gap
to the Voronoi method.  This variant implements the three R* signatures:

* **ChooseSubtree** minimising overlap enlargement at the level above the
  leaves (plain area enlargement higher up),
* **topological split**: choose the split axis by minimum margin sum, the
  split index by minimum overlap, and
* **forced re-insertion** of the 30 % of entries farthest from the node
  centre on the first overflow at each level per insertion.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.kernels import squared_distances
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.rtree import (
    RTree,
    _Node,
    _as_entries,
    _collect_entries,
    _divide,
    _item_rects,
)

_REINSERT_FRACTION = 0.3


class RStarTree(RTree):
    """R*-tree over 2-D points; same public interface as :class:`RTree`."""

    def __init__(
        self,
        max_entries: int = 16,
        min_entries: Optional[int] = None,
    ) -> None:
        super().__init__(max_entries, min_entries)
        self._reinserting_levels: Set[int] = set()

    # -- insertion ----------------------------------------------------------

    def insert(self, point: Point, item_id: int) -> None:
        self._reinserting_levels.clear()
        self._insert_entry(point, item_id)

    def _insert_entry(self, point: Point, item_id: int) -> None:
        leaf = self._choose_subtree(point)
        leaf.append_row(point.x, point.y, item_id)
        self._count += 1
        if leaf.size() > self.max_entries:
            self._overflow_treatment(leaf, level=self._node_level(leaf))
        else:
            self._tighten_upwards(leaf.parent)

    def _choose_subtree(self, point: Point) -> _Node:
        rect = Rect.from_point(point)
        node = self._root
        while not node.is_leaf:
            children = node.children
            if children and children[0].is_leaf:
                # Level above the leaves: minimise overlap enlargement.
                node = min(
                    children,
                    key=lambda child: (
                        _overlap_enlargement(child, children, rect),
                        child.mbr.enlargement(rect) if child.mbr else 0.0,
                        child.mbr.area if child.mbr else 0.0,
                    ),
                )
            else:
                node = min(
                    children,
                    key=lambda child: (
                        child.mbr.enlargement(rect) if child.mbr else 0.0,
                        child.mbr.area if child.mbr else 0.0,
                    ),
                )
        return node

    def _node_level(self, node: _Node) -> int:
        level = 0
        current = node
        while current.parent is not None:
            current = current.parent
            level += 1
        return level

    def _overflow_treatment(self, node: _Node, level: int) -> None:
        if node is not self._root and level not in self._reinserting_levels:
            self._reinserting_levels.add(level)
            self._forced_reinsert(node)
        else:
            self._split_and_propagate(node)

    def _forced_reinsert(self, node: _Node) -> None:
        """Remove the entries farthest from the node centre and re-insert."""
        center = node.mbr.center if node.mbr is not None else Point(0.0, 0.0)
        reinsert_count = max(1, int(node.size() * _REINSERT_FRACTION))
        if node.is_leaf:
            nearest_first = np.argsort(
                squared_distances(node.xs, node.ys, center.x, center.y),
                kind="stable",
            )
            evicted = node.rows_at(nearest_first[-reinsert_count:])
            node.set_rows(*node.rows_at(nearest_first[:-reinsert_count]))
            node.recompute_mbr()
            self._tighten_upwards(node.parent)
            for point, item_id in _as_entries(*evicted):
                self._count -= 1  # _insert_entry re-increments
                self._insert_entry(point, item_id)
        else:
            node.children.sort(
                key=lambda child: (
                    child.mbr.center.squared_distance_to(center)
                    if child.mbr is not None
                    else 0.0
                )
            )
            evicted_nodes = node.children[-reinsert_count:]
            node.children = node.children[:-reinsert_count]
            node.recompute_mbr()
            self._tighten_upwards(node.parent)
            for child in evicted_nodes:
                for point, item_id in _collect_entries(child):
                    self._count -= 1
                    self._insert_entry(point, item_id)

    # -- split --------------------------------------------------------------

    def _quadratic_split(self, node: _Node) -> _Node:
        """R* topological split (name kept so RTree's propagation reuses it)."""
        order, split_at = self._choose_split(_item_rects(node))
        return _divide(node, order[:split_at], order[split_at:])

    def _choose_split(
        self, rects: Sequence[Rect]
    ) -> Tuple[List[int], int]:
        """Pick (sorted index order, split position) per the R* criteria."""
        m = self.min_entries
        n = len(rects)
        best: Tuple[float, float, List[int], int] | None = None
        for axis_keys in (
            lambda r: (r.min_x, r.max_x),
            lambda r: (r.min_y, r.max_y),
        ):
            order = sorted(range(n), key=lambda i: axis_keys(rects[i]))
            margin_sum = 0.0
            candidates: List[Tuple[float, float, int]] = []
            for split_at in range(m, n - m + 1):
                left = _union_rects([rects[i] for i in order[:split_at]])
                right = _union_rects([rects[i] for i in order[split_at:]])
                margin_sum += left.margin + right.margin
                overlap = left.intersection_area(right)
                area = left.area + right.area
                candidates.append((overlap, area, split_at))
            overlap, area, split_at = min(candidates)
            key = (margin_sum, overlap + area)
            if best is None or key < (best[0], best[1]):
                best = (margin_sum, overlap + area, order, split_at)
        assert best is not None
        return best[2], best[3]


def _union_rects(rects: Sequence[Rect]) -> Rect:
    result = rects[0]
    for rect in rects[1:]:
        result = result.union(rect)
    return result


def _overlap_enlargement(
    child: _Node, siblings: Sequence[_Node], rect: Rect
) -> float:
    """Increase in total overlap with siblings if ``child`` absorbs ``rect``."""
    if child.mbr is None:
        return 0.0
    enlarged = child.mbr.union(rect)
    before = 0.0
    after = 0.0
    for other in siblings:
        if other is child or other.mbr is None:
            continue
        before += child.mbr.intersection_area(other.mbr)
        after += enlarged.intersection_area(other.mbr)
    return after - before
