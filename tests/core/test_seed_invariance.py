"""Algorithm 1 takes "an arbitrary position in A" — test that arbitrariness.

The paper's pseudo-code seeds from the NN of *any* position inside the
query area.  Correctness must therefore be independent of the chosen
position, and efficiency nearly so (the candidate set is determined by the
area's internal points plus the boundary shell, not by the seed).
"""

import random

import pytest

from repro.geometry.point import Point
from repro.core.database import SpatialDatabase
from repro.core.voronoi_query import voronoi_area_query
from repro.geometry.random_shapes import random_query_polygon
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def db():
    return SpatialDatabase.from_points(uniform_points(500, seed=401)).prepare()


class TestSeedInvariance:
    def test_results_identical_for_any_interior_seed(self, db):
        rng = random.Random(403)
        area = random_query_polygon(0.1, rng=rng)
        reference = None
        for seed_position in area.sample_interior(25, rng):
            result = voronoi_area_query(
                db.index,
                db.backend,
                db.store,
                area,
                seed_position=seed_position,
            )
            if reference is None:
                reference = result.ids
            assert result.ids == reference

    def test_candidates_stable_across_seeds(self, db):
        """The candidate count may differ by at most the one seed point
        (a seed whose NN lies outside the area adds itself)."""
        rng = random.Random(405)
        area = random_query_polygon(0.1, rng=rng)
        counts = {
            voronoi_area_query(
                db.index,
                db.backend,
                db.store,
                area,
                seed_position=seed_position,
            ).stats.candidates
            for seed_position in area.sample_interior(25, rng)
        }
        assert max(counts) - min(counts) <= 1

    def test_seed_outside_area_still_correct(self, db):
        """Even a (contract-violating) exterior seed position cannot produce
        wrong results — the expansion classifies every candidate exactly.
        It may return an empty set if the seed's component never touches
        the area, but whatever it returns must be a subset of the truth,
        and for seeds near the area it is exactly the truth."""
        rng = random.Random(407)
        area = random_query_polygon(0.1, rng=rng)
        expected = sorted(
            i for i in range(len(db)) if area.contains_point(db.point(i))
        )
        # Positions on a ring just outside the area's MBR.
        mbr = area.mbr
        near_positions = [
            Point(mbr.min_x - 0.01, mbr.min_y - 0.01),
            Point(mbr.max_x + 0.01, mbr.max_y + 0.01),
            Point(mbr.center.x, mbr.max_y + 0.01),
        ]
        for position in near_positions:
            result = voronoi_area_query(
                db.index, db.backend, db.store, area, seed_position=position
            )
            assert set(result.ids) <= set(expected)

    def test_degenerate_seed_on_data_point(self, db):
        """Seeding exactly on a database point (NN distance zero)."""
        rng = random.Random(409)
        area = random_query_polygon(0.15, rng=rng)
        inside_rows = [
            i for i in range(len(db)) if area.contains_point(db.point(i))
        ]
        if not inside_rows:
            pytest.skip("area happened to contain no points")
        expected = sorted(inside_rows)
        result = voronoi_area_query(
            db.index,
            db.backend,
            db.store,
            area,
            seed_position=db.point(inside_rows[0]),
        )
        assert result.ids == expected
