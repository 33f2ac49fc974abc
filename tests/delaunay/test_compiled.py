"""The compiled bulk build against the interpreted one, its oracle.

Three groups: the graphs are equal, CSR array for CSR array, on the inputs
that stress the build; the compiled predicates give the signs of
:mod:`repro.geometry.predicates` at every scale; and the loader falls back
to the interpreted loop, never raising, wherever the library cannot be had,
and compiles a damaged cached file again.

The library here is compiled with the system compiler whatever ``$CC``
says, so these tests run on a ``CC=false`` leg too; they skip only where
there is no C compiler at all.
"""

import ctypes
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.delaunay import compiled
from repro.delaunay.triangulation import (
    DelaunayTriangulation,
    _compiled_graph,
    _locations,
    bulk_graph,
)
from repro.engine.order import cell_key, hilbert_keys
from repro.geometry.predicates import (
    _incircle_exact,
    _orientation_exact,
    incircle_sign,
    orientation_sign,
)

SRC = Path(__file__).resolve().parents[2] / "src"
COMPILER = next(
    (name for name in ("cc", "gcc", "clang") if shutil.which(name)), None
)


@pytest.fixture(scope="module")
def lib():
    if COMPILER is None:
        pytest.skip("no C compiler")
    loaded = compiled.load(COMPILER, compiled.cache_directory())
    assert loaded is not None, "the system compiler did not build the insert"
    return loaded


# -- the same graph ------------------------------------------------------------


def _uniform(rows=4_000, seed=1):
    rng = np.random.default_rng(seed)
    return rng.random(rows), rng.random(rows)


def _clustered():
    rng = np.random.default_rng(2)
    centres = rng.random((6, 2))
    xy = centres[rng.integers(0, 6, 4_000)] + rng.normal(0.0, 0.01, (4_000, 2))
    return xy[:, 0], xy[:, 1]


def _exact_grid():
    # every cell's corners exactly cocircular, rows and columns collinear
    gx, gy = np.meshgrid(np.arange(60.0), np.arange(60.0))
    order = np.random.default_rng(3).permutation(gx.size)
    return gx.ravel()[order], gy.ravel()[order]


def _half_duplicates():
    xs, ys = _uniform(2_000, seed=4)
    return np.r_[xs, xs], np.r_[ys, ys]


def _far_outliers():
    # 9 000 rows in the unit square, three of them 1e9 away
    xs, ys = _uniform(9_000, seed=5)
    xs[[10, 4_000, 8_000]] = (1e9, -1e9, 3e8)
    ys[[10, 4_000, 8_000]] = (1e9, 4e8, -1e9)
    return xs, ys


def _near_collinear():
    rng = np.random.default_rng(6)
    xs = rng.random(3_000)
    return xs, xs + rng.random(3_000) * 1e-12


def _shuffled_copies():
    # 500 copies of random rows, scattered through the row order
    xs, ys = _uniform(3_000, seed=8)
    rng = np.random.default_rng(8)
    rows = np.r_[np.arange(3_000), rng.integers(0, 3_000, 500)]
    rng.shuffle(rows)
    return xs[rows], ys[rows]


def _shared_cells():
    # a 1e9 extent makes an order-31 cell about 0.47 wide: 40 distinct rows
    # 1e-3 apart share cells, and their copies (rows after them all) fall
    # behind the whole run in key order, away from their first rows
    xs, ys = _uniform(3_000, seed=9)
    xs, ys = xs * 1e9, ys * 1e9
    near_x, near_y = 5e8 + np.arange(40) * 1e-3, np.full(40, 5e8)
    return np.r_[xs, near_x, xs[:100:7], near_x[::3]], np.r_[ys, near_y, ys[:100:7], near_y[::3]]


def _scaled(scale):
    def rows():
        xs, ys = _uniform(400, seed=7)
        return xs * scale, ys * scale

    return rows


INPUTS = {
    "uniform": _uniform,
    "clustered": _clustered,
    "exact-grid": _exact_grid,
    "half-duplicates": _half_duplicates,
    "far-outliers": _far_outliers,
    "near-collinear": _near_collinear,
    "scale-1e-300": _scaled(1e-300),
    "scale-1e150": _scaled(1e150),
    "a-line": lambda: (np.arange(40.0)[::-1], 2.0 * np.arange(40.0)[::-1]),
    "one-row": lambda: (np.array([0.5]), np.array([0.5])),
    "copies-only": lambda: (np.full(3, 0.25), np.full(3, 0.75)),
    "shuffled-copies": _shuffled_copies,
    "shared-cells": _shared_cells,
}


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_the_compiled_graph_is_the_interpreted_one(lib, case):
    xs, ys = INPUTS[case]()
    interpreted = DelaunayTriangulation.from_xy(xs, ys)
    indptr, indices = _compiled_graph(lib, xs, ys)
    expected = interpreted.csr()
    assert indptr.dtype == indices.dtype == np.int32
    assert np.array_equal(indptr, expected[0]) and np.array_equal(indices, expected[1])
    with np.errstate(over="ignore", invalid="ignore"):  # the float filter at 1e150
        interpreted.check_delaunay_property()


def test_threads_build_at_once(lib):
    """The C side keeps no state between calls: concurrent builds (the
    call releases the interpreter lock) each get the whole graph."""
    xs, ys = _clustered()
    expected = DelaunayTriangulation.from_xy(xs, ys).csr()
    with ThreadPoolExecutor(max_workers=4) as pool:
        graphs = list(pool.map(lambda _: _compiled_graph(lib, xs, ys), range(8)))
    for indptr, indices in graphs:
        assert np.array_equal(indptr, expected[0]) and np.array_equal(indices, expected[1])


#: Key inputs at the edges of the snapping rule.
KEY_INPUTS = {
    "far-outliers": _far_outliers,
    "max-corner": lambda: (np.array([0.0, 1.0, 1.0, 0.25]), np.array([0.0, 1.0, 0.5, 1.0])),
    "one-row": lambda: (np.array([0.5]), np.array([-3.0])),
    "zero-width": lambda: (np.full(300, 2.5), _uniform(300, seed=10)[1]),
    "negative": lambda: tuple(-7.0 * column - 3.0 for column in _uniform(2_000, seed=11)),
    "scale-1e-300": _scaled(1e-300),
    "scale-1e150": _scaled(1e150),
}


@pytest.mark.parametrize("case", sorted(KEY_INPUTS))
def test_the_compiled_keys_are_the_curves(lib, case):
    xs, ys = KEY_INPUTS[case]()
    box = compiled.extent(xs, ys)
    expected = hilbert_keys((xs - box[0]) / box[2], (ys - box[1]) / box[3], order=31)
    assert np.array_equal(compiled.hilbert_keys(lib, xs, ys, box), expected)


def test_the_max_corner_is_the_last_cell(lib):
    xs, ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    last = (1 << 31) - 1
    assert compiled.hilbert_keys(lib, xs, ys, compiled.extent(xs, ys)).tolist() == [
        cell_key(0, 0, 31),
        cell_key(last, last, 31),
    ]


@pytest.mark.parametrize("keys_from", ["compiled", "numpy"])
@pytest.mark.parametrize("case", sorted(INPUTS))
def test_hilbert_order_is_the_stable_argsort_of_the_keys(lib, monkeypatch, keys_from, case):
    monkeypatch.setattr(compiled, "library", lambda: lib if keys_from == "compiled" else None)
    xs, ys = INPUTS[case]()
    box = compiled.extent(xs, ys)
    keys = hilbert_keys((xs - box[0]) / box[2], (ys - box[1]) / box[3], order=31)
    order, distinct = compiled.hilbert_order(xs, ys)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert distinct == (len(np.unique(keys)) == len(keys))
    if distinct:
        assert len(set(zip(xs.tolist(), ys.tolist()))) == len(xs)


def test_the_copy_inputs_take_the_dedup_path():
    """Both inputs reach the build's dedup branch the way it must be
    right: copies apart from their first row in key order, and (for the
    shared cells) distinct locations under one key."""
    for case in ("shuffled-copies", "shared-cells"):
        xs, ys = INPUTS[case]()
        order, distinct = compiled.hilbert_order(xs, ys)
        location = _locations(xs, ys)
        assert not distinct
        copies = np.flatnonzero(location[order] != order)
        assert (order[copies - 1] != location[order[copies]]).any()
    xs, ys = _shared_cells()
    box = compiled.extent(xs, ys)
    keys = hilbert_keys((xs - box[0]) / box[2], (ys - box[1]) / box[3], order=31)
    canonical = np.flatnonzero(_locations(xs, ys) == np.arange(len(xs)))
    assert len(np.unique(keys[canonical])) < len(canonical)


# -- the same predicate signs --------------------------------------------------

#: Decimal scales for random coordinates; the exact configurations scale by
#: the nearest power of two, which keeps their zeros exact.
SCALES = (1.0, 1e-20, 1e20, 1e-160, 1e-300, 1e150)
#: Integer points on the circle of radius 5.
CIRCLE = [(3, 4), (4, 3), (5, 0), (0, 5), (-3, 4), (-4, -3), (0, -5), (3, -4), (-5, 0)]


@st.composite
def configurations(draw):
    """Four points (eight coordinates) of one kind at one scale."""
    kind = draw(st.sampled_from(["random", "cocircular", "collinear", "grid", "ulp"]))
    scale = draw(st.sampled_from(SCALES))
    exact = math.ldexp(1.0, round(math.log2(scale)))
    if kind == "random":
        unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
        return [draw(unit) * scale for _ in range(8)]
    if kind == "collinear":
        dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        ts = draw(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
        return [c * exact for t in ts for c in (t * dx, t * dy)]
    if kind == "grid":
        cells = st.integers(-4, 4)
        return [draw(cells) * exact for _ in range(8)]
    picks = draw(st.permutations(CIRCLE))[:4]
    coordinates = [c * exact for point in picks for c in point]
    if kind == "ulp":
        at = draw(st.integers(0, 7))
        for _ in range(draw(st.integers(1, 2))):
            toward = draw(st.sampled_from([-math.inf, math.inf]))
            coordinates[at] = math.nextafter(coordinates[at], toward)
    return coordinates


def _sign(value: float) -> int:
    return (value > 0.0) - (value < 0.0)


def _compiled_signs(lib, coordinates):
    """The compiled orientation and incircle signs of ``coordinates``."""
    raised = []
    orient = compiled._callback(_orientation_exact, 6, raised)
    incircle = compiled._callback(_incircle_exact, 8, raised)
    signs = (
        _sign(lib.repro_orientation((ctypes.c_double * 6)(*coordinates[:6]), orient)),
        _sign(lib.repro_incircle((ctypes.c_double * 8)(*coordinates), incircle)),
    )
    assert not raised
    return signs


@settings(max_examples=400, deadline=None)
@given(configurations())
@example([0.0, 0.0, 2.2e-309, 0.0, 0.0, 2.2e-309, 1.0, 1.0])
@example([3.0, 4.0, 4.0, 3.0, 5.0, 0.0, 0.0, 5.0])
def test_the_compiled_predicates_decide_what_python_decides(lib, coordinates):
    assert _compiled_signs(lib, coordinates) == (
        _sign(orientation_sign(*coordinates[:6])),
        _sign(incircle_sign(*coordinates)),
    )


class _Interrupted(Exception):
    pass


@pytest.mark.parametrize("predicate", ["_orientation_exact", "_incircle_exact"])
def test_an_exact_stage_that_raises_stops_the_build(lib, monkeypatch, predicate):
    """ctypes drops an exception raised in a callback and hands C a 0.0,
    "collinear" or "cocircular": the build must stop and raise it rather
    than finish a wrong graph."""
    calls = []

    def failing(*coordinates):
        calls.append(coordinates)
        raise _Interrupted(len(calls))

    monkeypatch.setattr(compiled, predicate, failing)
    xs, ys = _exact_grid()  # collinear rows and cocircular cells
    with pytest.raises(_Interrupted) as raised:
        _compiled_graph(lib, xs, ys)
    assert raised.value.args == (1,)  # the first failure, not a later one
    assert len(calls) < 10  # the build stopped at the insert that failed


# -- the loader ----------------------------------------------------------------

# The points come from Python's random, not numpy.random: numpy.random
# imports secrets, so hashlib, which maps OpenSSL and would hide whether
# the build did.
_POINTS = """
import random
import numpy as np
rng = random.Random(9)
xs = np.array([rng.random() for _ in range(1500)])
ys = np.array([rng.random() for _ in range(1500)])
"""

_REPORT = _POINTS + """
import json, sys
from repro import SpatialDatabase
from repro.delaunay import compiled
db = SpatialDatabase.from_arrays(xs, ys).prepare()
openssl = "_ssl" in sys.modules or "_hashlib" in sys.modules
import hashlib
digest = hashlib.sha256()
for part in db.backend.neighbor_csr():
    digest.update(part.tobytes())
print(json.dumps({
    "compiled": compiled.library() is not None,
    "graph": digest.hexdigest(),
    "scipy": any(name.split(".")[0] == "scipy" for name in sys.modules),
    "openssl": openssl,
}))
"""


def _interpreted_digest() -> str:
    scope: dict = {}
    exec(_POINTS, scope)
    xs, ys = scope["xs"], scope["ys"]
    digest = hashlib.sha256()
    for part in DelaunayTriangulation.from_xy(xs, ys).csr():
        digest.update(part.tobytes())
    return digest.hexdigest()


def _spawn(cache: Path, compiler: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache), CC=compiler)
    return subprocess.Popen(
        [sys.executable, "-c", _REPORT], env=env, stdout=subprocess.PIPE, text=True
    )


def _report(process: subprocess.Popen) -> dict:
    out, _ = process.communicate(timeout=300)
    assert process.returncode == 0
    return json.loads(out)


def test_no_compiler_gives_the_interpreted_loop(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # CC=false asks for the interpreted loop
        assert compiled.load("false", tmp_path) is None
    with pytest.warns(RuntimeWarning, match="interpreted loop"):
        assert compiled.load("no-such-compiler-on-this-path", tmp_path) is None
    assert _report(_spawn(tmp_path, "false")) == {
        "compiled": False,
        "graph": _interpreted_digest(),
        "scipy": False,
        "openssl": False,
    }
    assert not any(tmp_path.rglob("*.so*"))  # a failed compile leaves nothing


def test_the_library_name_follows_the_source_and_the_command(tmp_path, monkeypatch):
    source = tmp_path / "_insert.c"
    source.write_bytes(compiled._SOURCE.read_bytes())
    monkeypatch.setattr(compiled, "_SOURCE", source)
    monkeypatch.setitem(sys.modules, "hashlib", None)  # named without OpenSSL

    def name(compiler):
        return compiled._target(compiler, tmp_path)[1].name

    first = name("cc")
    assert len(first) == len("insert-.so") + 16  # a 64-bit digest
    assert name("cc") == first
    assert name("cc -O3") != first and name("gcc") != first
    source.write_bytes(source.read_bytes().replace(b"int", b"Int", 1))
    changed = name("cc")
    assert changed != first
    assert name("cc") == changed


def _corrupt(compiler: str, directory: Path) -> Path:
    _, target = compiled._target(compiler, directory)
    target.parent.mkdir(exist_ok=True)
    # a new file, not the old one rewritten: this process may have it mapped
    target.unlink(missing_ok=True)
    target.write_bytes(b"\x7fELF not a library")
    return target


def test_a_corrupt_cached_library_is_compiled_again(tmp_path):
    if COMPILER is None:
        pytest.skip("no C compiler")
    target = _corrupt(COMPILER, tmp_path / "repro")
    assert compiled.load(COMPILER, tmp_path / "repro") is not None
    assert target.read_bytes()[:4] == b"\x7fELF" and target.stat().st_size > 1000
    _corrupt(COMPILER, tmp_path / "repro")
    assert _report(_spawn(tmp_path, COMPILER)) == {
        "compiled": True,
        "graph": _interpreted_digest(),
        "scipy": False,
        "openssl": False,
    }


def test_a_corrupt_library_that_cannot_be_rebuilt_gives_the_interpreted_loop(tmp_path):
    _corrupt("false", tmp_path / "repro")
    assert compiled.load("false", tmp_path / "repro") is None
    assert _report(_spawn(tmp_path, "false")) == {
        "compiled": False,
        "graph": _interpreted_digest(),
        "scipy": False,
        "openssl": False,
    }


def test_no_home_directory_gives_the_interpreted_loop(monkeypatch):
    """``env -i`` launchers: no $XDG_CACHE_HOME, no $HOME, no passwd entry."""
    if COMPILER is None:
        pytest.skip("no C compiler")

    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(Path, "home", no_home)
    monkeypatch.setenv("CC", COMPILER)
    monkeypatch.setattr(compiled, "_loaded", [])  # decide again, here
    rng = np.random.default_rng(9)
    xs, ys = rng.random(1500), rng.random(1500)
    with pytest.warns(RuntimeWarning, match="Could not determine home directory"):
        indptr, indices = bulk_graph(xs, ys)
    assert compiled.library() is None
    expected = DelaunayTriangulation.from_xy(xs, ys).csr()
    assert np.array_equal(indptr, expected[0]) and np.array_equal(indices, expected[1])


def test_two_processes_compile_into_one_empty_cache(tmp_path):
    if COMPILER is None:
        pytest.skip("no C compiler")
    first, second = _spawn(tmp_path, COMPILER), _spawn(tmp_path, COMPILER)
    reports = [_report(first), _report(second)]
    # both compiled, both built the interpreted graph, neither imported scipy
    # nor mapped OpenSSL
    expected = {"compiled": True, "graph": _interpreted_digest(), "scipy": False, "openssl": False}
    assert reports == [expected] * 2
    # one library, whole, and no partial file left behind
    assert [path.name for path in (tmp_path / "repro").iterdir()] == [
        compiled._target(COMPILER, tmp_path / "repro")[1].name
    ]
