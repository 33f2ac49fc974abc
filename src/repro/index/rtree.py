"""Guttman R-tree with quadratic split, held in numpy arrays.

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

**No Python object per node.**  The tree is a handful of arrays:

* the node table, one row a node: ``box`` (min x, min y, max x, max y),
  ``parent``, ``fill`` (children or entries held), a leaf flag and
  ``slot``, the node's row in one of the two slot tables;
* the child table: one row of ``max_entries + 1`` int32 child node ids
  per internal node;
* the leaf table: one row of ``max_entries + 1`` slots per leaf in each of
  ``xs`` / ``ys`` (float64) and ``ids`` (int32, :data:`~repro.index.base.ID_DTYPE`;
  an id outside its range is refused before anything is written).

A row holds one slot more than a node may keep, the overflow that
triggers its split.  Every table grows by doubling into ``np.empty``
(capacity not yet written is not resident), and the rows of dissolved
nodes go on a free list.  An STR pack allocates the tables at their exact
size: at the default ``max_entries = 16`` that is about 25 bytes a row,
21.25 of them the leaf table.  The probes walk the tree a level at a
time, over whole frontiers of nodes at once, and build ``(Point, id)``
:data:`~repro.index.base.Entry` tuples only where the interface hands
entries out (:meth:`RTree.window_query`, :meth:`RTree.items`, the
nearest-neighbour searches).

Nodes count their accesses in :attr:`SpatialIndex.stats` so experiments can
report page-read proxies.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.kernels import rect_contains_many
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import ID_DTYPE, Entry, SpatialIndex, check_id, id_array

_DEFAULT_MAX_ENTRIES = 16

#: ``bulk_load`` into a non-empty tree repacks when the batch is at least
#: ``1 / _REPACK_RATIO`` of the rows the new tree will hold.  The ratio is
#: at most the cost of one ``insert`` (0.5-0.9 ms into a 200 000-row tree,
#: the dearer right after a pack) over that of repacking one row (0.2-0.3
#: µs at 200 000 rows): 1 500 and up (docs/BENCHMARKS.md, "The R-tree in
#: arrays").  It is kept low because a repacked tree makes later inserts
#: dearer: STR fills every leaf, so the first insert into one splits it.
_REPACK_RATIO = 100

#: The three tables and their columns: nodes, internal nodes' child
#: slots, leaves' entry slots.  Each grows by doubling, all its columns
#: together.
_NODES, _CHILDREN, _LEAVES = 0, 1, 2
_TABLES = (
    ("_box", "_parent", "_fill", "_leaf", "_slot"),
    ("_child",),
    ("_xs", "_ys", "_ids"),
)


def _as_entries(xs, ys, ids) -> Iterator[Entry]:
    """Columns as ``(Point, id)`` tuples: the step out to the interface."""
    return zip(map(Point, xs.tolist(), ys.tolist()), ids.tolist())


def _sorted_by(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Positions by ``(major, minor, position)``, as ``np.lexsort((minor, major))``
    gives them; numpy's unstable argsort does too, 12x faster at 200 000 floats
    (docs/BENCHMARKS.md, "Bulk build"), unless two ``major`` values tie."""
    order = np.argsort(major)
    ordered = major[order]
    if (ordered[1:] == ordered[:-1]).any():
        return np.lexsort((minor, major))
    return order


def _areas(boxes: np.ndarray) -> np.ndarray:
    """The area of every ``(min x, min y, max x, max y)`` row."""
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def _joint_areas(boxes: np.ndarray, other: Sequence[float]) -> np.ndarray:
    """The area of the smallest rectangle covering each box and the box
    ``other``."""
    return (
        np.maximum(boxes[:, 2], other[2]) - np.minimum(boxes[:, 0], other[0])
    ) * (np.maximum(boxes[:, 3], other[3]) - np.minimum(boxes[:, 1], other[1]))


def _meeting(boxes: np.ndarray, x1: float, y1: float, x2: float, y2: float):
    """Which boxes meet the closed rectangle ``(x1, y1, x2, y2)``, as
    ``Rect.intersects`` decides."""
    return (
        (boxes[:, 0] <= x2) & (boxes[:, 2] >= x1)
        & (boxes[:, 1] <= y2) & (boxes[:, 3] >= y1)
    )


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
        width = max_entries + 1
        self._span = np.arange(width)
        one = np.zeros(1, dtype=np.int32)
        self._adopt(  # one empty leaf
            box=np.zeros((1, 4)), parent=one - 1, fill=one, leaf=one == 0,
            slot=one.copy(),
            child=np.empty((0, width), dtype=np.int32), xs=np.empty((1, width)),
            ys=np.empty((1, width)), ids=np.empty((1, width), dtype=ID_DTYPE),
            height=1,
        )
        self._size = 0
        self._packed = False  # STR bulk loads may legally underfill nodes

    def _adopt(self, *, box, parent, fill, leaf, slot, child, xs, ys, ids,
               height) -> None:
        """Swap in a whole tree whose root is its last node."""
        self._box, self._parent, self._fill = box, parent, fill
        self._leaf, self._slot = leaf, slot
        self._child, self._xs, self._ys, self._ids = child, xs, ys, ids
        self._used = [len(box), len(child), len(xs)]  # rows taken per table
        self._free: Tuple[List[int], List[int]] = ([], [])  # internal, leaf
        self._root = len(box) - 1
        self._height = height

    # -- construction ------------------------------------------------------

    def insert(self, point: Point, item_id: int) -> None:
        check_id(item_id)  # before anything is written
        self._insert_row(point.x, point.y, item_id)
        self._size += 1

    def bulk_load(self, xs, ys, ids) -> None:
        """STR (sort-tile-recursive) packing of the entries ``(xs, ys, ids)``.

        Three equally long columns: x and y coordinates and item ids
        (:class:`~repro.core.database.SpatialDatabase` passes the new
        rows' slices of its store's columns and their row ids, so no
        ``Point`` is built).  An empty tree is packed from them.  A
        non-empty one is repacked — its own leaf rows plus the batch, into
        new arrays swapped in at the end — when that is cheaper than
        inserting the batch row by row (:data:`_REPACK_RATIO`); an
        :meth:`items` traversal suspended over the old arrays finishes
        over them.  An id outside the int32 range raises
        :class:`ValueError` and leaves the tree as it was.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        ids = id_array(ids)  # ValueError past int32, before any change
        if not len(ids):
            return
        if self._size:
            if len(ids) * _REPACK_RATIO < self._size + len(ids):
                for x, y, item_id in zip(xs.tolist(), ys.tolist(), ids.tolist()):
                    self.insert(Point(x, y), item_id)
                return
            old = self._rows(self._levels(self._root)[-1])
            xs, ys, ids = (
                np.concatenate(pair) for pair in zip(old, (xs, ys, ids))
            )
        self._str_pack(xs, ys, ids)
        self._size = len(ids)
        self._packed = True

    def _str_pack(self, xs, ys, ids) -> None:
        """Pack non-empty columns into new tables and adopt them.

        Every level is packed the same way: sort the items (rows, then
        nodes) by centre x, slice into vertical strips, sort each strip by
        centre y, and cut into runs of ``capacity``.  Ties break by the other
        centre, then input order.  Each level's runs become its nodes, in
        run order; leaves are numbered first and the root last, and each run
        is written into its node's slot row with one scatter per column.
        """
        capacity = self.max_entries
        width = capacity + 1
        boxes = (xs, ys, xs, ys)  # min_x, min_y, max_x, max_y per item
        levels = []  # (order, starts, sizes, boxes), leaves first
        while not levels or len(levels[-1][1]) > 1:
            count = len(boxes[0])
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
            sizes = np.diff(starts, append=count)
            levels.append((order, starts, sizes, np.column_stack(boxes)))
        leaves = len(levels[0][1])
        box = np.concatenate([level[3] for level in levels])
        total = len(box)
        slot = np.r_[0:leaves, 0 : total - leaves].astype(np.int32)
        parent = np.full(total, -1, dtype=np.int32)
        child = np.empty((total - leaves, width), dtype=np.int32)
        table = [np.empty((leaves, width)) for _ in range(2)]
        table.append(np.empty((leaves, width), dtype=ID_DTYPE))
        first = below = 0  # first node of this level, of the level below
        for depth, (order, starts, sizes, _) in enumerate(levels):
            nodes = np.arange(first, first + len(starts))
            # item i of the packed order goes to cell (node, i - its start)
            cells = np.arange(len(order)) + np.repeat(
                slot[nodes].astype(np.int64) * width - starts, sizes
            )
            if depth == 0:
                for column, values in zip(table, (xs, ys, ids)):
                    column.reshape(-1)[cells] = values[order]
            else:
                child.reshape(-1)[cells] = below + order
                parent[below + order] = np.repeat(nodes, sizes)
            below, first = first, first + len(starts)
        self._adopt(
            box=box, parent=parent, leaf=np.arange(total) < leaves,
            fill=np.concatenate([level[2] for level in levels]).astype(np.int32),
            slot=slot, child=child, xs=table[0], ys=table[1], ids=table[2],
            height=len(levels),
        )

    def delete(self, point: Point, item_id: int) -> bool:
        if not self._size:
            return False
        x, y = point.x, point.y
        nodes = np.array([self._root])  # FindLeaf, a level at a time
        for depth in range(self._height):
            if depth:
                nodes = self._children(nodes)
            nodes = nodes[_meeting(self._box.take(nodes, 0), x, y, x, y)]
            if not len(nodes):
                return False
        slots = self._slot[nodes]
        hits = np.flatnonzero(
            (self._span < self._fill[nodes][:, None])
            & (self._ids[slots] == item_id)
            & (self._xs[slots] == x)
            & (self._ys[slots] == y)
        )
        if not len(hits):
            return False
        row, position = divmod(int(hits[0]), self.max_entries + 1)
        leaf, slot = int(nodes[row]), slots[row]
        last = self._fill[leaf] - 1  # the last entry moves into the hole
        for column in (self._xs, self._ys, self._ids):
            column[slot, position] = column[slot, last]
        self._fill[leaf] = last
        self._size -= 1
        self._condense_tree(leaf)
        # The root may have become a lone internal node; shrink the tree.
        while not self._leaf[self._root] and self._fill[self._root] == 1:
            old = self._root
            self._root = int(self._child[self._slot[old], 0])
            self._parent[self._root] = -1
            self._free[False].append(old)  # it keeps its slot row
            self._height -= 1
        return True

    def __len__(self) -> int:
        return self._size

    # -- queries -----------------------------------------------------------

    def window_query(self, window: Rect) -> List[Entry]:
        if not self._size:
            return []
        nodes = np.array([self._root])
        self.stats.node_accesses += 1
        edges = window.min_x, window.min_y, window.max_x, window.max_y
        for _ in range(self._height - 1):
            children = self._children(nodes)
            nodes = children[_meeting(self._box.take(children, 0), *edges)]
            self.stats.node_accesses += len(nodes)
        xs, ys, ids = self._rows(nodes)
        self.stats.entry_tests += len(ids)
        inside = rect_contains_many(window, xs, ys)
        return list(_as_entries(xs[inside], ys[inside], ids[inside]))

    def window_ids_array(self, window: Rect):
        """Bulk window probe: ids only, fully-contained subtrees wholesale.

        Same id set as :meth:`window_query`, but subtrees whose MBR lies
        entirely inside the window hand over their leaves' ids without a
        single per-point containment test (the MBR containment already
        proves membership), and the leaves the window's boundary cuts are
        masked together, from their coordinate slots, in one closed-bounds
        comparison.  No per-entry Python work either way.  Returns an int32
        array in unspecified order for the columnar refine paths to gather
        coordinates by row id.
        """
        if not self._size:
            return np.empty(0, dtype=ID_DTYPE)
        inside, cut = self._cover(window)
        xs, ys, ids = self._rows(cut)
        self.stats.entry_tests += len(ids)
        found = [ids[rect_contains_many(window, xs, ys)]]
        for depth, nodes in inside:
            for _ in range(depth, self._height - 1):  # walked, not tested
                self.stats.node_accesses += int(self._fill.take(nodes).sum())
                nodes = self._children(nodes)
            found.extend(self._rows(nodes, self._ids))
        return np.concatenate(found) if len(found) > 1 else found[0]

    def _cover(self, window: Rect):
        """The nodes ``window`` meets: those inside it, as ``(depth,
        nodes)`` pairs, and the leaves it cuts.

        A depth-first walk over box rows that tests each child as
        ``window.intersects`` / ``window.contains_rect`` do, in Python
        floats: it visits the few nodes on the window's boundary, too few
        to pay numpy's cost per call.  Counts one access per node met.
        """
        x1, y1, x2, y2 = window.min_x, window.min_y, window.max_x, window.max_y
        box, child, slot, fill = self._box, self._child, self._slot, self._fill
        last = self._height - 1
        inside: List[List[int]] = [[] for _ in range(self._height)]
        cut: List[int] = []
        met = 0
        stack = [(np.array([self._root]), 0)]  # sibling nodes to test
        while stack:
            nodes, depth = stack.pop()
            edges = iter(box.take(nodes, 0).ravel().tolist())
            for node, a, b, c, d in zip(nodes.tolist(), edges, edges, edges, edges):
                if a > x2 or c < x1 or b > y2 or d < y1:
                    continue
                met += 1
                if x1 <= a and y1 <= b and x2 >= c and y2 >= d:
                    inside[depth].append(node)
                elif depth == last:
                    cut.append(node)
                else:
                    stack.append((child[slot[node], : fill[node]], depth + 1))
        self.stats.node_accesses += met
        return [(depth, nodes) for depth, nodes in enumerate(inside) if nodes], cut

    def nearest_neighbor(self, query: Point) -> Optional[Entry]:
        results = self.k_nearest_neighbors(query, 1)
        return results[0] if results else None

    def k_nearest_neighbors(self, query: Point, k: int) -> List[Entry]:
        """Best-first k-NN (Hjaltason & Samet style) over squared MINDIST.

        A visited node scores its children's boxes, and a visited leaf its
        entries, in Python floats over their slot rows (numpy's cost per
        call is more than a dozen items' arithmetic), with the operations
        of ``Rect.squared_distance_to_point`` / ``dx*dx + dy*dy``.
        Deterministic tie-breaking: equidistant entries are returned in
        ascending id order (nodes sort before entries at equal distance so
        no closer-or-equal entry can be missed), matching the brute-force
        oracle and the Voronoi kNN exactly even on duplicate locations.
        """
        if k <= 0 or not self._size:
            return []
        qx, qy = query.x, query.y
        # (distance, 0, node) or (distance, 1, id, x, y)
        heap: List[tuple] = []

        def push_nodes(nodes: np.ndarray) -> None:
            """Queue ``nodes`` by squared MINDIST, computed in Python floats
            as ``Rect.squared_distance_to_point`` does."""
            edges = iter(self._box.take(nodes, 0).ravel().tolist())
            for node, a, b, c, d in zip(nodes.tolist(), edges, edges, edges, edges):
                dx = max(a - qx, 0.0, qx - c)
                dy = max(b - qy, 0.0, qy - d)
                heapq.heappush(heap, (dx * dx + dy * dy, 0, node))

        push_nodes(np.array([self._root]))
        results: List[Entry] = []
        while heap and len(results) < k:
            item = heapq.heappop(heap)
            if item[1] == 1:
                results.append((Point(item[3], item[4]), item[2]))
                continue
            node = item[2]
            slot, fill = self._slot[node], int(self._fill[node])
            self.stats.node_accesses += 1
            if not self._leaf[node]:
                push_nodes(self._child[slot, :fill])
                continue
            self.stats.entry_tests += fill
            for x, y, item_id in zip(
                self._xs[slot, :fill].tolist(),
                self._ys[slot, :fill].tolist(),
                self._ids[slot, :fill].tolist(),
            ):
                dx, dy = x - qx, y - qy
                heapq.heappush(heap, (dx * dx + dy * dy, 1, item_id, x, y))
        return results

    def items(self) -> Iterator[Entry]:
        """Every entry, from a copy of the leaf rows taken now."""
        if not self._size:
            return iter(())
        return _as_entries(*self._rows(self._levels(self._root)[-1]))

    @property
    def bounds(self) -> Optional[Rect]:
        """MBR of all stored points (``None`` when empty), in O(1).

        The root's box: every node's is kept tight through inserts,
        deletes and packs (:meth:`check_invariants` verifies it), so no
        entry needs visiting.
        """
        if not self._size:
            return None
        return Rect(*self._box[self._root].tolist())

    # -- introspection (used by tests and benches) --------------------------

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        return self._height

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        return sum(len(nodes) for nodes in self._levels(self._root))

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if any structural invariant fails.

        Checked: tight boxes, parent pointers, fill
        bounds (except the root, and except minimum fill after an STR bulk
        load, whose trailing slices may legally underfill), uniform leaf
        depth, the height and the entry count.
        """
        if self._parent[self._root] != -1:
            raise AssertionError("the root has a parent")
        nodes, depth, entries = np.array([self._root]), 0, 0
        while True:
            depth += 1
            if not len(nodes):
                raise AssertionError("an internal level holds no node")
            at_leaves = bool(self._leaf[nodes[0]])
            if (self._leaf[nodes] != at_leaves).any():
                raise AssertionError("unbalanced leaf depths")
            for node in nodes.tolist():
                self._check_node(node)
            if at_leaves:
                entries += int(self._fill[nodes].sum())
                break
            nodes = self._children(nodes)
        if depth != self._height:
            raise AssertionError(f"height {self._height} != {depth} levels")
        if entries != self._size:
            raise AssertionError(f"{entries} entries, {self._size} counted")

    def _check_node(self, node: int) -> None:
        """One node's fill, box and children's parent pointers."""
        fill, slot = int(self._fill[node]), self._slot[node]
        if not self._packed and node != self._root and fill < self.min_entries:
            raise AssertionError(f"underfull node: {fill} < {self.min_entries}")
        if fill > self.max_entries:
            raise AssertionError(f"overfull node: {fill} > {self.max_entries}")
        if self._leaf[node]:
            if not fill:
                return
            xs, ys = self._xs[slot, :fill], self._ys[slot, :fill]
            expected = [xs.min(), ys.min(), xs.max(), ys.max()]
        else:
            children = self._child[slot, :fill]
            if (self._parent[children] != node).any():
                raise AssertionError("broken parent pointer")
            boxes = self._box[children]
            expected = [*boxes[:, :2].min(0), *boxes[:, 2:].max(0)]
        if self._box[node].tolist() != [float(edge) for edge in expected]:
            raise AssertionError("stale MBR")

    # -- internals ----------------------------------------------------------

    def _children(self, nodes) -> np.ndarray:
        """The children of internal ``nodes``, node by node, in slot order."""
        return self._rows(nodes, self._child)[0]

    def _rows(self, nodes, *columns) -> List[np.ndarray]:
        """Copies of the filled slots of ``nodes`` in each slot-table
        column (default the leaf table's ``xs``, ``ys``, ``ids``), node by
        node, in slot order."""
        nodes = np.asarray(nodes, dtype=np.intp)  # one conversion, two takes
        slots = self._slot.take(nodes)
        used = self._span < self._fill.take(nodes)[:, None]
        return [
            column.take(slots, 0)[used]
            for column in columns or (self._xs, self._ys, self._ids)
        ]

    def _levels(self, top: int) -> List[np.ndarray]:
        """The nodes of the subtree under ``top``, level by level."""
        levels = [np.array([top])]
        while len(levels[-1]) and not self._leaf[levels[-1][0]]:
            levels.append(self._children(levels[-1]))
        return levels

    def _new_node(self, leaf: bool) -> int:
        """A node row with an empty slot row of its kind."""
        free = self._free[leaf]
        if free:
            node = free.pop()
        else:
            node = self._take_row(_NODES)
            self._slot[node] = self._take_row(_LEAVES if leaf else _CHILDREN)
            self._leaf[node] = leaf
        self._fill[node] = 0
        return node

    def _take_row(self, table: int) -> int:
        """The next unused row of ``table``, its columns doubled when full."""
        row = self._used[table]
        self._used[table] += 1
        for name in _TABLES[table]:
            column = getattr(self, name)
            if row == len(column):
                grown = np.empty((2 * row + 1,) + column.shape[1:], column.dtype)
                grown[:row] = column
                setattr(self, name, grown)
        return row

    def _refresh(self, node: int) -> None:
        """Recompute ``node``'s box from what it holds."""
        slot, fill = self._slot[node], self._fill[node]
        if self._leaf[node]:
            if fill:
                xs, ys = self._xs[slot, :fill], self._ys[slot, :fill]
                self._box[node] = (xs.min(), ys.min(), xs.max(), ys.max())
        else:
            children = self._child[slot, :fill]
            boxes = self._box[children]
            self._box[node] = (*boxes[:, :2].min(0), *boxes[:, 2:].max(0))

    def _insert_row(self, x: float, y: float, item_id: int) -> None:
        """Guttman Insert of one entry (the entry count is the caller's)."""
        node, path = self._root, []
        point = (x, y, x, y)
        while not self._leaf[node]:  # ChooseLeaf: least enlargement, then area
            path.append(node)
            children = self._child[self._slot[node], : self._fill[node]]
            boxes = self._box[children]
            areas = _areas(boxes)
            node = children[np.lexsort((areas, _joint_areas(boxes, point) - areas))[0]]
        path.append(node)
        slot, fill = self._slot[node], self._fill[node]
        self._xs[slot, fill], self._ys[slot, fill] = x, y
        self._ids[slot, fill] = item_id
        self._fill[node] = fill + 1
        if not fill:
            self._box[node] = point
        boxes = self._box[path]  # AdjustTree: grow every box on the path
        boxes[:, :2] = np.minimum(boxes[:, :2], (x, y))
        boxes[:, 2:] = np.maximum(boxes[:, 2:], (x, y))
        self._box[path] = boxes
        while self._fill[node] > self.max_entries:
            sibling = self._split(node)
            parent = int(self._parent[node])
            if parent < 0:
                root = self._new_node(leaf=False)
                self._child[self._slot[root], :2] = (node, sibling)
                self._fill[root] = 2
                self._parent[[node, sibling]] = root
                self._parent[root] = -1
                self._refresh(root)
                self._root = root
                self._height += 1
                return
            self._child[self._slot[parent], self._fill[parent]] = sibling
            self._fill[parent] += 1
            self._parent[sibling] = parent
            self._refresh(parent)
            node = parent

    def _split(self, node: int) -> int:
        """Split an overflowing ``node`` in place; returns the new sibling."""
        leaf = bool(self._leaf[node])
        sibling = self._new_node(leaf)  # may grow the tables: read them after
        slot, fill = self._slot[node], self._fill[node]
        if leaf:
            xs, ys = self._xs[slot, :fill], self._ys[slot, :fill]
            boxes = np.column_stack((xs, ys, xs, ys))
            columns = (self._xs, self._ys, self._ids)
        else:
            boxes = self._box[self._child[slot, :fill]]
            columns = (self._child,)
        stay, move = self._quadratic_split(boxes)
        target = self._slot[sibling]
        for column in columns:
            row = column[slot, :fill].copy()
            column[target, : len(move)] = row[move]
            column[slot, : len(stay)] = row[stay]
        if not leaf:
            self._parent[self._child[target, : len(move)]] = sibling
        self._fill[node], self._fill[sibling] = len(stay), len(move)
        self._parent[sibling] = self._parent[node]
        self._refresh(node)
        self._refresh(sibling)
        return sibling

    def _quadratic_split(self, boxes: np.ndarray) -> Tuple[List[int], List[int]]:
        """Guttman's quadratic split of the items with these boxes: the
        positions that stay and the positions that move."""
        count = len(boxes)
        low_x, low_y, high_x, high_y = boxes.T
        areas = _areas(boxes)
        # PickSeeds: the pair wasting the most area together (first in
        # (i, j) order on ties)
        waste = (
            (np.maximum.outer(high_x, high_x) - np.minimum.outer(low_x, low_x))
            * (np.maximum.outer(high_y, high_y) - np.minimum.outer(low_y, low_y))
            - areas[:, None]
            - areas
        )
        waste[np.tril_indices(count)] = -np.inf
        seeds = divmod(int(np.argmax(waste)), count)
        groups = ([seeds[0]], [seeds[1]])
        covers = [boxes[seed].tolist() for seed in seeds]
        rest = np.delete(np.arange(count), seeds)
        while len(rest):
            # If one group must absorb the rest to reach minimum fill, do so.
            if self.min_entries - len(groups[0]) >= len(rest):
                groups[0].extend(rest.tolist())
                break
            if self.min_entries - len(groups[1]) >= len(rest):
                groups[1].extend(rest.tolist())
                break
            # PickNext: the entry with the largest preference difference.
            candidates = boxes[rest]
            growth = [
                _joint_areas(candidates, cover)
                - (cover[2] - cover[0]) * (cover[3] - cover[1])
                for cover in covers
            ]
            pick = int(np.argmax(np.abs(growth[0] - growth[1])))
            item, rest = int(rest[pick]), np.delete(rest, pick)
            keys = [
                (float(grown[pick]), (c[2] - c[0]) * (c[3] - c[1]), len(group))
                for grown, c, group in zip(growth, covers, groups)
            ]
            side = 0 if keys[0] <= keys[1] else 1
            groups[side].append(item)
            cover, box = covers[side], boxes[item].tolist()
            covers[side] = [
                min(cover[0], box[0]), min(cover[1], box[1]),
                max(cover[2], box[2]), max(cover[3], box[3]),
            ]
        return groups

    def _condense_tree(self, leaf: int) -> None:
        """Guttman CondenseTree: dissolve underfull nodes, re-insert orphans."""
        orphans: List[int] = []
        node = leaf
        while (parent := int(self._parent[node])) >= 0:
            if self._fill[node] < self.min_entries:
                row = self._child[self._slot[parent]]  # a view: edit in place
                last = self._fill[parent] - 1
                row[np.flatnonzero(row[: last + 1] == node)[0]] = row[last]
                self._fill[parent] = last
                orphans.append(node)
            else:
                self._refresh(node)
            node = parent
        self._refresh(node)
        rows = []
        for orphan in orphans:
            levels = self._levels(orphan)
            rows.append(self._rows(levels[-1]))  # copies, before the rows go
            for node in np.concatenate(levels).tolist():
                self._free[bool(self._leaf[node])].append(node)
        for xs, ys, ids in rows:
            for x, y, item_id in zip(xs.tolist(), ys.tolist(), ids.tolist()):
                self._insert_row(x, y, item_id)
