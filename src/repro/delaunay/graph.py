"""Graph utilities over the Delaunay/Voronoi neighbour structure.

The correctness argument of the paper (Section III) is graph-theoretic:

* Property 5 — the Delaunay graph is connected;
* Properties 7–9 — internal points only border internal/boundary points,
  so a BFS seeded inside the query area and blocked at external points
  still reaches every internal point.

This module provides the traversals and checks that make those claims
testable, plus generic helpers (components, shortest hop paths) usable by
applications built on the library.

The helpers read only ``backend.neighbors`` and ``backend.size``, not a
triangulation, so they work over the backend however it was built — and
over any adjacency structure a test wants to fabricate.  The greedy
descent that corrects a seed past tombstones
(:func:`repro.core.voronoi_query.graph_nearest`) relies on the same
connectivity property (Property 5) that these utilities verify.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.delaunay.backends import DelaunayBackend


def bfs_order(
    backend: DelaunayBackend,
    seed: int,
    *,
    expand: Optional[Callable[[int], bool]] = None,
) -> List[int]:
    """Breadth-first visit order from ``seed`` over Voronoi neighbours.

    ``expand(i)`` decides whether the frontier grows *through* point ``i``
    (the point itself is always reported once reached).  With the paper's
    internal-point predicate as ``expand``, this is the skeleton of
    Algorithm 1.
    """
    visited: Set[int] = {seed}
    order: List[int] = []
    queue: deque[int] = deque([seed])
    while queue:
        current = queue.popleft()
        order.append(current)
        if expand is not None and not expand(current):
            continue
        for neighbor in backend.neighbors(current):
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    return order


def connected_components(backend: DelaunayBackend) -> List[List[int]]:
    """Connected components of the neighbour graph (Property 5: expect one)."""
    remaining: Set[int] = set(range(backend.size))
    components: List[List[int]] = []
    while remaining:
        seed = next(iter(remaining))
        component = bfs_order(backend, seed)
        components.append(sorted(component))
        remaining.difference_update(component)
    return components


def is_connected(backend: DelaunayBackend) -> bool:
    """True if every point is reachable from every other (Property 5)."""
    if backend.size == 0:
        return True
    return len(bfs_order(backend, 0)) == backend.size


def shortest_hop_path(
    backend: DelaunayBackend, source: int, target: int
) -> Optional[List[int]]:
    """A minimum-hop path through the neighbour graph, or ``None``.

    Useful for applications (e.g. nearest-facility routing along Voronoi
    adjacency) and for the test that internal points of an area are mutually
    reachable without leaving the area (the paper's key structural claim).
    """
    if source == target:
        return [source]
    parent: Dict[int, int] = {source: source}
    queue: deque[int] = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in backend.neighbors(current):
            if neighbor in parent:
                continue
            parent[neighbor] = current
            if neighbor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(neighbor)
    return None


def reachable_without(
    backend: DelaunayBackend,
    seed: int,
    blocked: Set[int],
) -> Set[int]:
    """All points reachable from ``seed`` without entering ``blocked``.

    Directly encodes the paper's claim behind Properties 7–9: with
    ``blocked`` = external points, the reachable set from any internal seed
    contains every internal point.
    """
    if seed in blocked:
        return set()
    visited: Set[int] = {seed}
    queue: deque[int] = deque([seed])
    while queue:
        current = queue.popleft()
        for neighbor in backend.neighbors(current):
            if neighbor not in visited and neighbor not in blocked:
                visited.add(neighbor)
                queue.append(neighbor)
    return visited


def degree_histogram(backend: DelaunayBackend) -> Dict[int, int]:
    """Histogram of neighbour counts.

    For uniform random points the average Voronoi neighbour count tends to
    six (a classical fact the tests assert loosely); the histogram is also a
    useful dataset diagnostic.
    """
    histogram: Dict[int, int] = {}
    for i in range(backend.size):
        degree = len(backend.neighbors(i))
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def average_degree(backend: DelaunayBackend) -> float:
    """Mean neighbour count over all points."""
    if backend.size == 0:
        return 0.0
    return (
        sum(len(backend.neighbors(i)) for i in range(backend.size))
        / backend.size
    )


def edge_list(backend: DelaunayBackend) -> List[Tuple[int, int]]:
    """All undirected neighbour pairs ``(i, j)`` with ``i < j``."""
    edges: Set[Tuple[int, int]] = set()
    for i in range(backend.size):
        for j in backend.neighbors(i):
            edges.add((i, j) if i < j else (j, i))
    return sorted(edges)


def check_symmetry(backend: DelaunayBackend) -> None:
    """Raise :class:`AssertionError` if the neighbour relation is asymmetric.

    Voronoi adjacency is symmetric by definition (cells share an edge); this
    validates a backend implementation.
    """
    for i in range(backend.size):
        for j in backend.neighbors(i):
            if i not in backend.neighbors(j):
                raise AssertionError(
                    f"asymmetric adjacency: {j} in N({i}) but {i} not in N({j})"
                )
