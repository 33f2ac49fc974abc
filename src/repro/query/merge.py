"""Set-semantics merging of composite parts' sorted row ids.

The composite query specs (:class:`~repro.query.spec.UnionQuery`,
:class:`~repro.query.spec.IntersectionQuery`,
:class:`~repro.query.spec.DifferenceQuery`) combine the results of
region-kind parts, whose ids are unique and ascending.
:func:`merge_ids` is the one place that knows what each kind means over
such arrays; the job runner (:func:`repro.engine.batch.run_jobs`) under
the batch engine and the cluster coordinator is its one caller.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import Sequence

import numpy as np

from repro.query.spec import (
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    UnionQuery,
)


def merge_ids(
    spec: CompositeQuery, part_arrays: Sequence[np.ndarray]
) -> np.ndarray:
    """The merged ids of ``spec`` over its parts' id arrays, ascending.

    Every input must be unique and ascending (int64); so is the output.
    Union is :func:`numpy.union1d`, intersection
    :func:`numpy.intersect1d` and difference (the first part minus every
    later one) :func:`numpy.setdiff1d`, folded left over the parts.
    """
    first, *rest = part_arrays
    if isinstance(spec, UnionQuery):
        return reduce(np.union1d, rest, first)
    if isinstance(spec, IntersectionQuery):
        return reduce(partial(np.intersect1d, assume_unique=True), rest, first)
    if isinstance(spec, DifferenceQuery):
        return reduce(partial(np.setdiff1d, assume_unique=True), rest, first)
    raise TypeError(f"not a composite spec: {spec!r}")
