"""The Hilbert curve has one definition: scalar, cell and array forms agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.order import cell_index, cell_key, hilbert_index, hilbert_keys

ORDERS = (1, 8, 16, 31)

#: The edges of the snapping rule: both ends of the unit interval, the
#: values next to them on either side, cell borders, and far outside.
BOUNDARY = [
    0.0,
    -0.0,
    1.0,
    np.nextafter(0.0, -1.0),
    np.nextafter(0.0, 1.0),
    np.nextafter(1.0, 0.0),
    np.nextafter(1.0, 2.0),
    0.5,
    np.nextafter(0.5, 0.0),
    0.25,
    0.75,
    -1.0,
    2.0,
    -1e300,
    1e300,
]

coordinate = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(BOUNDARY),
)


def _scalar(xs, ys, order):
    return [hilbert_index(float(x), float(y), order=order) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("order", ORDERS)
def test_keys_equal_index_on_boundary_pairs(order):
    xs = [x for x in BOUNDARY for _ in BOUNDARY]
    ys = [y for _ in BOUNDARY for y in BOUNDARY]
    keys = hilbert_keys(xs, ys, order=order)
    assert keys.dtype == np.int64
    assert keys.tolist() == _scalar(xs, ys, order)


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40))
def test_keys_equal_index_elementwise(order, pairs):
    xs, ys = zip(*pairs)
    assert hilbert_keys(xs, ys, order=order).tolist() == _scalar(xs, ys, order)


@pytest.mark.parametrize("order", ORDERS)
def test_keys_equal_index_on_random_columns(order):
    rng = np.random.default_rng(order)
    xs = rng.uniform(-0.2, 1.2, 2000)
    ys = rng.uniform(-0.2, 1.2, 2000)
    assert hilbert_keys(xs, ys, order=order).tolist() == _scalar(xs, ys, order)


def test_index_is_the_key_of_the_snapped_cell():
    side = 1 << 8
    for x, y in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.9), (-4.0, 7.0)]:
        assert hilbert_index(x, y, order=8) == cell_key(
            cell_index(x, side), cell_index(y, side), 8
        )


def test_keys_visit_every_cell_once():
    side = 1 << 4
    centres = (np.arange(side) + 0.5) / side
    xs, ys = np.meshgrid(centres, centres)
    keys = hilbert_keys(xs.ravel(), ys.ravel(), order=4)
    assert sorted(keys.tolist()) == list(range(side * side))


def test_empty_columns_and_bad_orders():
    assert hilbert_keys([], [], order=8).tolist() == []
    for order in (0, -1, 32):
        with pytest.raises(ValueError):
            hilbert_keys([0.5], [0.5], order=order)
    with pytest.raises(ValueError):
        hilbert_index(0.5, 0.5, order=0)
