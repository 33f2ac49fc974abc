"""The paper's graph properties over a neighbour backend, as test oracles.

* Property 5 — the Delaunay graph is connected: :func:`is_connected`;
* Properties 7–9 — internal points only border internal or boundary
  points, so a BFS seeded inside the query area and blocked at external
  points still reaches every internal point: :func:`reachable_without`.

Both read only ``backend.neighbors`` and ``backend.size``, so they work
over any backend and over any adjacency a test fabricates.
"""

from __future__ import annotations

from collections import deque
from typing import Set


def reachable_without(backend, seed: int, blocked: Set[int]) -> Set[int]:
    """All points reachable from ``seed`` without entering ``blocked``."""
    if seed in blocked:
        return set()
    visited: Set[int] = {seed}
    queue = deque([seed])
    while queue:
        for neighbor in backend.neighbors(queue.popleft()):
            if neighbor not in visited and neighbor not in blocked:
                visited.add(neighbor)
                queue.append(neighbor)
    return visited


def is_connected(backend) -> bool:
    """True if every point is reachable from every other (Property 5)."""
    return backend.size == 0 or len(reachable_without(backend, 0, set())) == backend.size
