"""PR (point-region) quadtree.

Another classical index from the paper's related-work survey (Samet 1984).
Space is recursively quartered; leaves hold up to ``capacity`` points.  The
tree needs a bounding box at construction time — callers index normalised
data in the unit square by default, and the box grows automatically if a
point falls outside it (by re-rooting).

Unlike the R-tree family the decomposition is *space*-driven, not
data-driven: node boundaries never overlap, so a window query descends
every subtree intersecting the window with no double-visits, while
clustered data simply subdivides deeper (down to ``_MAX_DEPTH``, where
duplicates and near-duplicates stay in one overflowing leaf rather than
recursing forever).  That makes it the interesting *middle* point of the
index ablation: adaptive like a tree, overlap-free like the grid.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry.kernels import rect_contains_many
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import Entry, SpatialIndex

_DEFAULT_CAPACITY = 16
_MAX_DEPTH = 48  # beyond this, duplicates/near-duplicates stay in one leaf


class _QuadNode:
    __slots__ = ("box", "entries", "children", "depth")

    def __init__(self, box: Rect, depth: int) -> None:
        self.box = box
        self.entries: Optional[List[Entry]] = []  # None once subdivided
        self.children: Optional[List["_QuadNode"]] = None
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def quadrant_for(self, point: Point) -> int:
        """0=SW, 1=SE, 2=NW, 3=NE, by comparison with the box centre."""
        center = self.box.center
        index = 0
        if point.x >= center.x:
            index += 1
        if point.y >= center.y:
            index += 2
        return index


def _mask_boundary_entries(window: Rect, sure_ids: List[int], entries):
    """Finish a bulk window probe: mask boundary-leaf entries in one pass.

    ``sure_ids`` came from fully-contained subtrees (no tests needed);
    ``entries`` are the candidates from partially-overlapping leaves.
    Packs the candidates into coordinate/id columns and applies one
    vectorized closed-bounds mask — the same comparison
    ``Rect.contains_point`` performs, at C speed per entry.
    """
    sure = np.fromiter(sure_ids, dtype=np.int64, count=len(sure_ids))
    count = len(entries)
    if not count:
        return sure
    if count < 32:  # numpy packing overhead beats tiny leaf scans
        matched = [
            item_id
            for point, item_id in entries
            if window.contains_point(point)
        ]
        inside = np.fromiter(matched, dtype=np.int64, count=len(matched))
        return np.concatenate((sure, inside)) if sure.size else inside
    xs = np.fromiter((p.x for p, _ in entries), np.float64, count)
    ys = np.fromiter((p.y for p, _ in entries), np.float64, count)
    ids = np.fromiter((i for _, i in entries), np.int64, count)
    inside = ids[rect_contains_many(window, xs, ys)]
    return np.concatenate((sure, inside)) if sure.size else inside


class QuadTree(SpatialIndex):
    """PR quadtree with window and best-first NN queries."""

    def __init__(
        self,
        bounds: Rect = Rect(0.0, 0.0, 1.0, 1.0),
        capacity: int = _DEFAULT_CAPACITY,
    ) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._root = _QuadNode(bounds, depth=0)
        self._count = 0

    # -- construction ------------------------------------------------------

    def insert(self, point: Point, item_id: int) -> None:
        while not self._root.box.contains_point(point):
            self._grow_towards(point)
        self._insert_into(self._root, point, item_id)
        self._count += 1

    def _grow_towards(self, point: Point) -> None:
        """Double the root box towards ``point``, re-rooting the tree."""
        b = self._root.box
        grow_left = point.x < b.min_x
        grow_down = point.y < b.min_y
        new_box = Rect(
            b.min_x - (b.width if grow_left else 0.0),
            b.min_y - (b.height if grow_down else 0.0),
            b.max_x + (0.0 if grow_left else b.width),
            b.max_y + (0.0 if grow_down else b.height),
        )
        old_root = self._root
        new_root = _QuadNode(new_box, depth=0)
        new_root.entries = None
        center = new_box.center
        new_root.children = [
            _QuadNode(Rect(new_box.min_x, new_box.min_y, center.x, center.y), 1),
            _QuadNode(Rect(center.x, new_box.min_y, new_box.max_x, center.y), 1),
            _QuadNode(Rect(new_box.min_x, center.y, center.x, new_box.max_y), 1),
            _QuadNode(Rect(center.x, center.y, new_box.max_x, new_box.max_y), 1),
        ]
        # The old root occupies exactly one quadrant of the new root.
        quadrant = new_root.quadrant_for(old_root.box.center)
        old_root.depth = 1
        _bump_depths(old_root)
        new_root.children[quadrant] = old_root
        self._root = new_root

    def _insert_into(self, node: _QuadNode, point: Point, item_id: int) -> None:
        while not node.is_leaf:
            assert node.children is not None
            node = node.children[node.quadrant_for(point)]
        assert node.entries is not None
        node.entries.append((point, item_id))
        if len(node.entries) > self.capacity and node.depth < _MAX_DEPTH:
            self._subdivide(node)

    def _subdivide(self, node: _QuadNode) -> None:
        center = node.box.center
        b = node.box
        node.children = [
            _QuadNode(Rect(b.min_x, b.min_y, center.x, center.y), node.depth + 1),
            _QuadNode(Rect(center.x, b.min_y, b.max_x, center.y), node.depth + 1),
            _QuadNode(Rect(b.min_x, center.y, center.x, b.max_y), node.depth + 1),
            _QuadNode(Rect(center.x, center.y, b.max_x, b.max_y), node.depth + 1),
        ]
        assert node.entries is not None
        entries, node.entries = node.entries, None
        for point, item_id in entries:
            self._insert_into(node, point, item_id)

    def delete(self, point: Point, item_id: int) -> bool:
        node = self._root
        if not node.box.contains_point(point):
            return False
        while not node.is_leaf:
            assert node.children is not None
            node = node.children[node.quadrant_for(point)]
        assert node.entries is not None
        try:
            node.entries.remove((point, item_id))
        except ValueError:
            return False
        self._count -= 1
        return True

    def __len__(self) -> int:
        return self._count

    # -- queries -----------------------------------------------------------

    def window_query(self, window: Rect) -> List[Entry]:
        results: List[Entry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not window.intersects(node.box):
                continue
            self.stats.node_accesses += 1
            if node.is_leaf:
                assert node.entries is not None
                self.stats.entry_tests += len(node.entries)
                results.extend(
                    entry
                    for entry in node.entries
                    if window.contains_point(entry[0])
                )
            else:
                assert node.children is not None
                stack.extend(node.children)
        return results

    def window_ids_array(self, window: Rect):
        """Bulk window probe: ids only, contained quadrants wholesale.

        Quadrant boxes are exact (space-driven decomposition), so a node
        box inside the window proves every occupant's membership — those
        subtrees dump ids with no per-point tests; only boundary leaves
        pay them.  Id set identical to :meth:`window_query`; int64
        array, unspecified order.
        """
        ids: List[int] = []
        boundary_entries: List[Entry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not window.intersects(node.box):
                continue
            self.stats.node_accesses += 1
            if window.contains_rect(node.box):
                self._collect_subtree_ids(node, ids)
                continue
            if node.is_leaf:
                assert node.entries is not None
                self.stats.entry_tests += len(node.entries)
                boundary_entries.extend(node.entries)
            else:
                assert node.children is not None
                stack.extend(node.children)
        return _mask_boundary_entries(window, ids, boundary_entries)

    def _collect_subtree_ids(self, start: _QuadNode, ids: List[int]) -> None:
        """Append every entry id below ``start`` (no geometric tests)."""
        stack = [start]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.entries is not None
                ids.extend([item_id for _, item_id in node.entries])
            else:
                assert node.children is not None
                self.stats.node_accesses += len(node.children)
                stack.extend(node.children)

    def nearest_neighbor(self, query: Point) -> Optional[Entry]:
        results = self.k_nearest_neighbors(query, 1)
        return results[0] if results else None

    def k_nearest_neighbors(self, query: Point, k: int) -> List[Entry]:
        if k <= 0 or self._count == 0:
            return []
        counter = itertools.count()
        # (distance, kind, tiebreak, payload): nodes (kind 0) explored
        # before equal-distance entries (kind 1, tie-broken by id), so
        # equidistant duplicates come out in deterministic id order.
        heap: List[Tuple[float, int, int, object]] = [
            (
                self._root.box.squared_distance_to_point(query),
                0,
                next(counter),
                self._root,
            )
        ]
        results: List[Entry] = []
        while heap and len(results) < k:
            _, kind, _, item = heapq.heappop(heap)
            if kind == 0:
                node: _QuadNode = item  # type: ignore[assignment]
                self.stats.node_accesses += 1
                if node.is_leaf:
                    assert node.entries is not None
                    self.stats.entry_tests += len(node.entries)
                    for entry in node.entries:
                        heapq.heappush(
                            heap,
                            (
                                entry[0].squared_distance_to(query),
                                1,
                                entry[1],
                                entry,
                            ),
                        )
                else:
                    assert node.children is not None
                    for child in node.children:
                        heapq.heappush(
                            heap,
                            (
                                child.box.squared_distance_to_point(query),
                                0,
                                next(counter),
                                child,
                            ),
                        )
            else:
                results.append(item)  # type: ignore[arg-type]
        return results

    def items(self) -> Iterator[Entry]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.entries is not None
                yield from node.entries
            else:
                assert node.children is not None
                stack.extend(node.children)

    @property
    def depth(self) -> int:
        """Maximum leaf depth."""
        best = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                best = max(best, node.depth)
            else:
                assert node.children is not None
                stack.extend(node.children)
        return best


def _bump_depths(node: _QuadNode) -> None:
    """Recursively shift subtree depths after re-rooting."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current.children is not None:
            for child in current.children:
                child.depth = current.depth + 1
                stack.append(child)
