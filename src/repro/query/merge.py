"""Set-semantics merging of composite parts' sorted row ids.

The composite query specs (:class:`~repro.query.spec.UnionQuery`,
:class:`~repro.query.spec.IntersectionQuery`,
:class:`~repro.query.spec.DifferenceQuery`) combine the results of
region-kind parts, whose ids are unique and ascending.
:func:`merge_ids` is the one place that knows what each kind means over
such arrays; the job runner (:func:`repro.engine.batch.run_jobs`) under
the batch engine and the cluster coordinator is its one caller.

No function here calls :func:`numpy.unique` or the set routines built on
it (``union1d``): on numpy 2.4 its first call imports ``numpy.ma``, about
0.9 MiB a served process never otherwise needs.  :func:`unique_ids` is
the sort and adjacent-difference they stand for.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.query.spec import (
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    UnionQuery,
)


def unique_ids(ids: np.ndarray) -> np.ndarray:
    """``ids`` ascending, each once: one sort and an adjacent-difference
    mask, what :func:`numpy.unique` returns."""
    ordered = np.sort(ids)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def merge_ids(
    spec: CompositeQuery, part_arrays: Sequence[np.ndarray]
) -> np.ndarray:
    """The merged ids of ``spec`` over its parts' id arrays, ascending.

    Every input must be unique and ascending (records hold int32 ids);
    so is the output.
    Union keeps every id once; intersection the ids all parts hold, which
    in the sorted concatenation of unique parts are the runs as long as
    the part count; difference the first part's ids that no later part
    holds (:func:`numpy.isin`).
    """
    first, *rest = part_arrays
    if isinstance(spec, UnionQuery):
        return unique_ids(np.concatenate(part_arrays))
    if isinstance(spec, IntersectionQuery):
        ordered = np.sort(np.concatenate(part_arrays))
        head = ordered[: max(0, len(ordered) - len(rest))]
        return head[head == ordered[len(rest) :]]
    if isinstance(spec, DifferenceQuery):
        return first[~np.isin(first, np.concatenate(rest))]
    raise TypeError(f"not a composite spec: {spec!r}")
