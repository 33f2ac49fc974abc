"""Guttman R-tree with quadratic split.

This is the index the paper's experiments use for **both** methods: the
traditional baseline runs its MBR window query on it, and the Voronoi method
uses its nearest-neighbour search to find the seed point ("For fairness, the
index used to provide the NN query in our method is also R-tree").

Implemented features:

* insertion with Guttman's ChooseLeaf + quadratic node split,
* deletion with CondenseTree re-insertion,
* window (range) query,
* best-first (priority-queue) nearest-neighbour and k-NN search, and
* STR (sort-tile-recursive) bulk loading for fast construction of the large
  experimental datasets.

**Leaves are columnar.**  A leaf holds its entries as three equally long
arrays (``xs``/``ys`` float64, ``ids`` int64) and no Python object per
entry: after a bulk load they are slices of the STR-packed columns, once
``insert`` / ``delete`` / a split touches a leaf it owns small arrays of its
own — one representation for packed and grown trees.  :meth:`RTree.bulk_load`
takes the ``(xs, ys, ids)`` columns themselves.  The probes the hot
paths use (:meth:`RTree.window_ids_array`, :meth:`RTree.window_count`, the
nearest-neighbour searches) read those arrays directly; ``(Point, id)``
:data:`~repro.index.base.Entry` tuples are built only where the interface
hands entries out (:meth:`RTree.window_query`, :meth:`RTree.items`, the
search results).

Nodes count their accesses in :attr:`SpatialIndex.stats` so experiments can
report page-read proxies.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.kernels import rect_contains_many, squared_distances
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect, union_all
from repro.index.base import Entry, SpatialIndex

_DEFAULT_MAX_ENTRIES = 16

#: ``bulk_load`` into a non-empty tree repacks when the batch is at least
#: ``1 / _REPACK_RATIO`` of the rows the new tree will hold.  The ratio is
#: at most the cost of one ``insert`` (240–500 µs into a grown tree of
#: 10 000–20 000 rows, more right after a pack, when every leaf splits) over
#: that of repacking one row (0.4 µs at 10 000–200 000 rows, collecting the
#: old leaves' columns included): 600 and up, kept low because a repacked
#: tree makes later inserts dearer (docs/BENCHMARKS.md, "Bulk build").
_REPACK_RATIO = 100

#: What a node without entries holds (shared, so read-only).
_NO_COORDS = np.empty(0, dtype=np.float64)
_NO_COORDS.flags.writeable = False
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


def _as_entries(xs, ys, ids) -> Iterator[Entry]:
    """Columns as ``(Point, id)`` tuples: the step out to the interface."""
    return zip(map(Point, xs.tolist(), ys.tolist()), ids.tolist())


class _Node:
    """One R-tree node; ``mbr`` is kept tight at all times.

    A leaf holds its entries as the columns ``xs`` / ``ys`` / ``ids``
    (never modified in place: a change installs new arrays, so a slice of
    the packed columns is never written through); an internal node holds
    child nodes.
    """

    __slots__ = (
        "is_leaf", "xs", "ys", "ids", "children", "mbr", "parent", "_weight"
    )

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.xs = _NO_COORDS
        self.ys = _NO_COORDS
        self.ids = _NO_IDS
        # A leaf never has children: it shares one empty tuple.
        self.children: Sequence["_Node"] = () if is_leaf else []
        self.mbr: Optional[Rect] = None
        self.parent: Optional["_Node"] = None
        self._weight = 0  # entries below an internal node (leaves count live)

    @property
    def entries(self) -> List[Entry]:
        """A leaf's rows as ``(Point, id)`` tuples, built on every access."""
        return list(_as_entries(self.xs, self.ys, self.ids))

    def set_rows(self, xs, ys, ids) -> None:
        """Replace a leaf's columns."""
        self.xs, self.ys, self.ids = xs, ys, ids

    def rows_at(self, positions):
        """A leaf's columns restricted to ``positions`` (index or mask)."""
        return self.xs[positions], self.ys[positions], self.ids[positions]

    def append_row(self, x: float, y: float, item_id: int) -> None:
        """Add one entry to a leaf and grow its MBR over it."""
        self.set_rows(
            np.concatenate((self.xs, (x,))),
            np.concatenate((self.ys, (y,))),
            np.concatenate((self.ids, (item_id,))),
        )
        self.extend_mbr(Rect(x, y, x, y))

    def weight(self) -> int:
        """Number of entries in this subtree (supports counting queries)."""
        return len(self.ids) if self.is_leaf else self._weight

    def recompute_mbr(self) -> None:
        if self.is_leaf:
            self.mbr = _columns_mbr(self.xs, self.ys) if len(self.ids) else None
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
            self.mbr = union_all(rects) if rects else None
            self._weight = sum(child.weight() for child in self.children)

    def extend_mbr(self, rect: Rect) -> None:
        self.mbr = rect if self.mbr is None else self.mbr.union(rect)

    def size(self) -> int:
        return len(self.ids) if self.is_leaf else len(self.children)


def _sorted_by(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Positions by ``(major, minor, position)``, as ``np.lexsort((minor, major))``
    gives them; numpy's unstable argsort does too, 12x faster at 200 000 floats
    (docs/BENCHMARKS.md, "Bulk build"), unless two ``major`` values tie."""
    order = np.argsort(major)
    ordered = major[order]
    if (ordered[1:] == ordered[:-1]).any():
        return np.lexsort((minor, major))
    return order


def _columns_mbr(xs: np.ndarray, ys: np.ndarray) -> Rect:
    """The MBR of a leaf's non-empty coordinate columns, as Python floats.

    At a leaf's dozen-odd rows ``min``/``max`` over the lists beat four
    array reductions; this runs on every insert and delete.
    """
    xs, ys = xs.tolist(), ys.tolist()
    return Rect(min(xs), min(ys), max(xs), max(ys))


def _divide(node: _Node, stay: Sequence[int], move: Sequence[int]) -> _Node:
    """Split ``node`` in place: the entries (or children) at positions
    ``stay`` remain, those at ``move`` go to the returned sibling."""
    sibling = _Node(is_leaf=node.is_leaf)
    if node.is_leaf:
        sibling.set_rows(*node.rows_at(move))
        node.set_rows(*node.rows_at(stay))
    else:
        children = node.children
        node.children = [children[i] for i in stay]
        sibling.children = [children[i] for i in move]
        for child in sibling.children:
            child.parent = sibling
    node.recompute_mbr()
    sibling.recompute_mbr()
    return sibling


class RTree(SpatialIndex):
    """Dynamic R-tree over 2-D points.

    Parameters
    ----------
    max_entries:
        Node capacity ``M``; a node splits when it would exceed this.
    min_entries:
        Minimum fill ``m`` (default ``ceil(M * 0.4)``); underfull nodes are
        dissolved and their contents re-inserted on deletion.
    """

    def __init__(
        self,
        max_entries: int = _DEFAULT_MAX_ENTRIES,
        min_entries: Optional[int] = None,
    ) -> None:
        super().__init__()
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries
            if min_entries is not None
            else max(1, math.ceil(max_entries * 0.4))
        )
        if not 1 <= self.min_entries <= self.max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, max_entries/2], got "
                f"{self.min_entries} for max_entries={max_entries}"
            )
        self._root = _Node(is_leaf=True)
        self._count = 0
        self._packed = False  # STR bulk loads may legally underfill nodes

    # -- construction ------------------------------------------------------

    def insert(self, point: Point, item_id: int) -> None:
        leaf = self._choose_leaf(self._root, point)
        leaf.append_row(point.x, point.y, item_id)
        self._count += 1
        if leaf.size() > self.max_entries:
            self._split_and_propagate(leaf)
        else:
            self._tighten_upwards(leaf.parent)

    def bulk_load(self, xs, ys, ids) -> None:
        """STR (sort-tile-recursive) packing of the entries ``(xs, ys, ids)``.

        Three equally long columns: x and y coordinates and item ids
        (:class:`~repro.core.database.SpatialDatabase` passes the new
        rows' slices of its store's columns and their row ids, so no
        ``Point`` is built).  An empty tree is packed from them.  A
        non-empty one is repacked — its own leaf columns plus the batch,
        into fresh nodes, the new root swapped in at the end — when that
        is cheaper than inserting the batch row by row
        (:data:`_REPACK_RATIO`); a traversal suspended over the old nodes
        finishes over the old tree.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if not len(ids):
            return
        if self._count:
            if len(ids) * _REPACK_RATIO < self._count + len(ids):
                for point, item_id in _as_entries(xs, ys, ids):
                    self.insert(point, item_id)
                return
            leaves = list(self._leaves())
            xs = np.concatenate([leaf.xs for leaf in leaves] + [xs])
            ys = np.concatenate([leaf.ys for leaf in leaves] + [ys])
            ids = np.concatenate([leaf.ids for leaf in leaves] + [ids])
        self._root = self._str_pack(xs, ys, ids)
        self._root.parent = None
        self._count = len(ids)
        self._packed = True

    def _str_pack(self, xs, ys, ids) -> _Node:
        """Pack non-empty columns into a tree; returns its root.

        Every level is packed the same way: sort the items (rows, then
        nodes) by centre x, slice into vertical strips, sort each strip by
        centre y, and cut into runs of ``capacity``.  Ties break by the other
        centre, then input order.  The rows are permuted once, into three
        packed columns the leaves slice.
        """
        capacity = self.max_entries
        boxes = (xs, ys, xs, ys)  # min_x, min_y, max_x, max_y per item
        weights = np.ones(len(ids), dtype=np.int64)
        below: Optional[List[_Node]] = None  # None: the items are the rows
        while True:
            count = len(weights)
            center_x = (boxes[0] + boxes[2]) / 2.0
            center_y = (boxes[1] + boxes[3]) / 2.0
            strip_count = math.ceil(math.sqrt(math.ceil(count / capacity)))
            strip_size = math.ceil(count / strip_count)
            offset = np.arange(count) % strip_size
            order = _sorted_by(center_x, center_y)
            by_y = _sorted_by(center_y[order], center_x[order])
            # regroup by strip, y order kept within (distinct keys: any sort)
            order = order[by_y[np.argsort(by_y // strip_size * count + np.arange(count))]]
            starts = np.flatnonzero(offset % capacity == 0)
            boxes = tuple(
                edge.reduceat(column[order], starts)
                for edge, column in zip(
                    (np.minimum, np.minimum, np.maximum, np.maximum), boxes
                )
            )
            weights = np.add.reduceat(weights[order], starts)
            if below is None:
                packed_rows = (xs[order], ys[order], ids[order])
            else:
                packed_nodes = [below[i] for i in order.tolist()]
            bounds = starts.tolist() + [count]
            nodes = []
            for start, stop, weight, box in zip(
                bounds,
                bounds[1:],
                weights.tolist(),
                zip(*(column.tolist() for column in boxes)),
            ):
                node = _Node(is_leaf=below is None)
                if below is None:
                    node.set_rows(*(c[start:stop] for c in packed_rows))
                else:
                    node.children = packed_nodes[start:stop]
                    node._weight = weight
                    for child in node.children:
                        child.parent = node
                node.mbr = Rect(*box)
                nodes.append(node)
            if len(nodes) == 1:
                return nodes[0]
            below = nodes

    def delete(self, point: Point, item_id: int) -> bool:
        found = self._find_leaf(self._root, point, item_id)
        if found is None:
            return False
        leaf, position = found
        leaf.set_rows(*leaf.rows_at(np.arange(len(leaf.ids)) != position))
        self._count -= 1
        self._condense_tree(leaf)
        # The root may have become a lone internal node; shrink the tree.
        while not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._root.parent = None
        return True

    def __len__(self) -> int:
        return self._count

    # -- queries -----------------------------------------------------------

    def window_query(self, window: Rect) -> List[Entry]:
        results: List[Entry] = []
        if self._root.mbr is None:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.node_accesses += 1
            if node.is_leaf:
                self.stats.entry_tests += len(node.ids)
                inside = rect_contains_many(window, node.xs, node.ys)
                if inside.any():
                    results.extend(_as_entries(*node.rows_at(inside)))
            else:
                stack.extend(
                    child
                    for child in node.children
                    if child.mbr is not None and window.intersects(child.mbr)
                )
        return results

    def window_ids_array(self, window: Rect):
        """Bulk window probe: ids only, fully-contained subtrees wholesale.

        Same id set as :meth:`window_query`, but subtrees whose MBR lies
        entirely inside the window hand over their leaves' id arrays
        without a single per-point containment test (the MBR containment
        already proves membership — the trick :meth:`window_count` uses
        for aggregates, here applied to materialization), and the leaves
        the window's boundary cuts are masked together, from their
        coordinate arrays, in one closed-bounds comparison.  No per-entry
        Python work either way.  Returns an int64 array in unspecified
        order for the columnar refine paths to gather coordinates by row
        id.
        """
        if self._root.mbr is None:
            return np.empty(0, dtype=np.int64)
        inside: List[np.ndarray] = []  # id arrays of contained subtrees
        cut: List[_Node] = []  # leaves the window's boundary crosses
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not window.intersects(node.mbr):
                continue
            self.stats.node_accesses += 1
            if window.contains_rect(node.mbr):
                self._collect_subtree_ids(node, inside)
            elif node.is_leaf:
                self.stats.entry_tests += len(node.ids)
                cut.append(node)
            else:
                stack.extend(node.children)
        if cut:
            ids = np.concatenate([leaf.ids for leaf in cut])
            inside.append(
                ids[
                    rect_contains_many(
                        window,
                        np.concatenate([leaf.xs for leaf in cut]),
                        np.concatenate([leaf.ys for leaf in cut]),
                    )
                ]
            )
        return np.concatenate(inside) if inside else np.empty(0, dtype=np.int64)

    def _collect_subtree_ids(
        self, node: _Node, ids: List[np.ndarray]
    ) -> None:
        """Append the id array of every leaf below ``node`` (no tests)."""
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                ids.append(current.ids)
            else:
                self.stats.node_accesses += len(current.children)
                stack.extend(current.children)

    def window_count(self, window: Rect) -> int:
        """Number of entries inside ``window`` without materialising them.

        Subtrees whose MBR is fully contained in the window contribute
        their maintained weight and are not descended — a COUNT(*)
        aggregate query in O(perimeter) node visits instead of
        O(result size).
        """
        if self._root.mbr is None:
            return 0
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not window.intersects(node.mbr):
                continue
            self.stats.node_accesses += 1
            if window.contains_rect(node.mbr):
                total += node.weight()
                continue
            if node.is_leaf:
                self.stats.entry_tests += len(node.ids)
                total += int(
                    np.count_nonzero(
                        rect_contains_many(window, node.xs, node.ys)
                    )
                )
            else:
                stack.extend(node.children)
        return total

    def nearest_neighbor(self, query: Point) -> Optional[Entry]:
        results = self.k_nearest_neighbors(query, 1)
        return results[0] if results else None

    def k_nearest_neighbors(self, query: Point, k: int) -> List[Entry]:
        """Best-first k-NN (Hjaltason & Samet style) over squared MINDIST.

        A visited leaf scores all its entries with one array expression
        (bitwise the scalar ``dx*dx + dy*dy``).  Deterministic
        tie-breaking: equidistant entries are returned in ascending id
        order (nodes sort before entries at equal distance so no
        closer-or-equal entry can be missed), matching the brute-force
        oracle and the Voronoi kNN exactly even on duplicate locations.
        """
        if k <= 0 or self._root.mbr is None:
            return []
        counter = itertools.count()  # heap never compares node objects
        # (distance, 0, tie-break, node) or (distance, 1, id, x, y)
        heap: List[tuple] = [
            (
                self._root.mbr.squared_distance_to_point(query),
                0,
                next(counter),
                self._root,
            )
        ]
        results: List[Entry] = []
        while heap and len(results) < k:
            item = heapq.heappop(heap)
            if item[1] == 1:
                results.append((Point(item[3], item[4]), item[2]))
                continue
            node: _Node = item[3]
            self.stats.node_accesses += 1
            if node.is_leaf:
                self.stats.entry_tests += len(node.ids)
                distances = squared_distances(
                    node.xs, node.ys, query.x, query.y
                )
                for scored in zip(
                    distances.tolist(),
                    itertools.repeat(1),
                    node.ids.tolist(),
                    node.xs.tolist(),
                    node.ys.tolist(),
                ):
                    heapq.heappush(heap, scored)
            else:
                for child in node.children:
                    if child.mbr is not None:
                        heapq.heappush(
                            heap,
                            (
                                child.mbr.squared_distance_to_point(query),
                                0,
                                next(counter),
                                child,
                            ),
                        )
        return results

    def items(self) -> Iterator[Entry]:
        for leaf in self._leaves():
            yield from leaf.entries

    def _leaves(self) -> Iterator[_Node]:
        """Every leaf, in the order :meth:`items` walks them."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children)

    @property
    def bounds(self) -> Optional[Rect]:
        """MBR of all stored points (``None`` when empty), in O(1).

        The root's MBR: every node's is kept tight through inserts,
        deletes and packs (:meth:`check_invariants` verifies it), so no
        entry needs visiting.
        """
        return self._root.mbr

    # -- introspection (used by tests and benches) --------------------------

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if any structural invariant fails.

        Checked: tight MBRs, equally long leaf columns, subtree weights,
        parent pointers, fill bounds (except the root, and except minimum
        fill after an STR bulk load, whose trailing slices may legally
        underfill), and uniform leaf depth.
        """
        leaf_depths: List[int] = []
        stack: List[Tuple[_Node, int]] = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            if (
                not self._packed
                and node is not self._root
                and node.size() < self.min_entries
            ):
                raise AssertionError(
                    f"underfull node: {node.size()} < {self.min_entries}"
                )
            if node.size() > self.max_entries:
                raise AssertionError(
                    f"overfull node: {node.size()} > {self.max_entries}"
                )
            if node.is_leaf:
                leaf_depths.append(depth)
                if not len(node.xs) == len(node.ys) == len(node.ids):
                    raise AssertionError("ragged leaf columns")
                if len(node.ids) and node.mbr != _columns_mbr(node.xs, node.ys):
                    raise AssertionError("stale leaf MBR")
            else:
                expected = union_all(
                    c.mbr for c in node.children if c.mbr is not None
                )
                if node.mbr != expected:
                    raise AssertionError("stale internal MBR")
                expected_weight = sum(c.weight() for c in node.children)
                if node.weight() != expected_weight:
                    raise AssertionError(
                        f"stale subtree weight: {node.weight()} != "
                        f"{expected_weight}"
                    )
                for child in node.children:
                    if child.parent is not node:
                        raise AssertionError("broken parent pointer")
                    stack.append((child, depth + 1))
        if leaf_depths and len(set(leaf_depths)) != 1:
            raise AssertionError(f"unbalanced leaf depths: {set(leaf_depths)}")

    # -- internals ----------------------------------------------------------

    def _choose_leaf(self, node: _Node, point: Point) -> _Node:
        """Guttman ChooseLeaf: descend by least enlargement, ties by area."""
        rect = Rect.from_point(point)
        while not node.is_leaf:
            node = min(
                node.children,
                key=lambda child: (
                    child.mbr.enlargement(rect) if child.mbr else 0.0,
                    child.mbr.area if child.mbr else 0.0,
                ),
            )
        return node

    def _tighten_upwards(self, node: Optional[_Node]) -> None:
        while node is not None:
            node.recompute_mbr()
            node = node.parent

    def _split_and_propagate(self, node: _Node) -> None:
        while node.size() > self.max_entries:
            sibling = self._quadratic_split(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(is_leaf=False)
                new_root.children = [node, sibling]
                node.parent = sibling.parent = new_root
                new_root.recompute_mbr()
                self._root = new_root
                return
            parent.children.append(sibling)
            sibling.parent = parent
            parent.recompute_mbr()
            node = parent
        self._tighten_upwards(node)

    def _quadratic_split(self, node: _Node) -> _Node:
        """Split ``node`` in place, returning the new sibling."""
        rects = _item_rects(node)
        seed_a, seed_b = _pick_seeds(rects)
        group_a = [seed_a]
        group_b = [seed_b]
        mbr_a = rects[seed_a]
        mbr_b = rects[seed_b]
        remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]

        while remaining:
            # If one group must absorb the rest to reach minimum fill, do so.
            need_a = self.min_entries - len(group_a)
            need_b = self.min_entries - len(group_b)
            if need_a >= len(remaining):
                group_a.extend(remaining)
                for i in remaining:
                    mbr_a = mbr_a.union(rects[i])
                break
            if need_b >= len(remaining):
                group_b.extend(remaining)
                for i in remaining:
                    mbr_b = mbr_b.union(rects[i])
                break
            # PickNext: the entry with the largest preference difference.
            best_index = max(
                range(len(remaining)),
                key=lambda idx: abs(
                    mbr_a.enlargement(rects[remaining[idx]])
                    - mbr_b.enlargement(rects[remaining[idx]])
                ),
            )
            i = remaining.pop(best_index)
            growth_a = mbr_a.enlargement(rects[i])
            growth_b = mbr_b.enlargement(rects[i])
            if (growth_a, mbr_a.area, len(group_a)) <= (
                growth_b,
                mbr_b.area,
                len(group_b),
            ):
                group_a.append(i)
                mbr_a = mbr_a.union(rects[i])
            else:
                group_b.append(i)
                mbr_b = mbr_b.union(rects[i])

        return _divide(node, group_a, group_b)

    def _find_leaf(
        self, node: _Node, point: Point, item_id: int
    ) -> Optional[Tuple[_Node, int]]:
        """The leaf holding ``(point, item_id)`` and the entry's position."""
        if node.mbr is None or not node.mbr.contains_point(point):
            return None
        if node.is_leaf:
            for position, candidate in enumerate(node.ids.tolist()):
                if (
                    candidate == item_id
                    and node.xs[position] == point.x
                    and node.ys[position] == point.y
                ):
                    return node, position
            return None
        for child in node.children:
            found = self._find_leaf(child, point, item_id)
            if found is not None:
                return found
        return None

    def _condense_tree(self, leaf: _Node) -> None:
        """Guttman CondenseTree: dissolve underfull nodes, re-insert orphans."""
        orphans: List[Entry] = []
        node = leaf
        while node.parent is not None:
            parent = node.parent
            if node.size() < self.min_entries:
                parent.children.remove(node)
                orphans.extend(_collect_entries(node))
            else:
                node.recompute_mbr()
            node = parent
        self._root.recompute_mbr()
        for point, item_id in orphans:
            self._count -= 1  # insert() will re-increment
            self.insert(point, item_id)


def _pick_seeds(rects: Sequence[Rect]) -> Tuple[int, int]:
    """Guttman PickSeeds: the pair wasting the most area together."""
    best_pair = (0, 1)
    worst_waste = -math.inf
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            waste = (
                rects[i].union(rects[j]).area - rects[i].area - rects[j].area
            )
            if waste > worst_waste:
                worst_waste = waste
                best_pair = (i, j)
    return best_pair


def _item_rects(node: _Node) -> List[Rect]:
    """The MBR of every entry (leaf) or child (internal node), in order."""
    if node.is_leaf:
        return [
            Rect(x, y, x, y) for x, y in zip(node.xs.tolist(), node.ys.tolist())
        ]
    return [child.mbr for child in node.children]


def _collect_entries(node: _Node) -> List[Entry]:
    """All leaf entries beneath ``node``, as ``(Point, id)`` tuples."""
    collected: List[Entry] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            collected.extend(current.entries)
        else:
            stack.extend(current.children)
    return collected
