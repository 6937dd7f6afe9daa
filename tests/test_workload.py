"""Qualifying-set and query-region generators."""

import pytest

from memsrs.spatial import SpatialSpace
from memsrs.workload import Relation, gen_query_region


def test_relation_tuple_count_320mb():
    rel = Relation(n=320 * 2**20 // (16 * 8), seed=1)
    assert rel.n == 2_621_440


def test_qualifying_cardinality_is_exact():
    rel = Relation(n=1000, seed=3)
    # ceil(sigma*n) without float-product drift: 0.1*1000 is exactly 100
    for sigma, want in ((0.0, 0), (0.001, 1), (0.0015, 2), (0.1, 100),
                        (0.5, 500), (1.0, 1000)):
        q = rel.qualifying_set(sigma)
        assert len(q) == want
        assert len(set(q)) == len(q)
        assert all(1 <= t <= 1000 for t in q)


def test_qualifying_modes():
    rel = Relation(n=100, seed=9)
    clustered = rel.qualifying_set(0.25, mode="clustered")
    assert clustered == tuple(range(1, 26))
    uniform = rel.qualifying_set(0.25, mode="uniform")
    assert len(uniform) == 25
    assert uniform != clustered or True  # same length, usually different ids
    assert list(uniform) == sorted(uniform)
    with pytest.raises(ValueError):
        rel.qualifying_set(0.5, mode="banded")


def test_same_seed_same_content():
    a = Relation(n=500, seed=42)
    b = Relation(n=500, seed=42)
    qa, qb = a.qualifying_set(0.1), b.qualifying_set(0.1)
    assert qa == qb
    c = Relation(n=500, seed=43)
    assert c.qualifying_set(0.1) != qa


def test_query_region_sizes():
    space = SpatialSpace(6400, 6400, 64)
    qr = gen_query_region(space, 0.0001, 1.0, seed=7)
    assert (qr.qx, qr.qy) == (64, 64)
    qr = gen_query_region(space, 0.01, 1.0, seed=7)
    assert (qr.qx, qr.qy) == (640, 640)
    qr = gen_query_region(space, 0.01, 16.0, seed=7)
    assert (qr.qx, qr.qy) == (2560, 160)
    qr = gen_query_region(space, 0.01, 8.0, seed=7)
    assert (qr.qx, qr.qy) == (1810, 226)
    qr = gen_query_region(space, 0.1, 1.0, seed=7)
    assert (qr.qx, qr.qy) == (2024, 2024)


def test_query_region_origin_in_bounds_and_seeded():
    space = SpatialSpace(6400, 6400, 64)
    seen = set()
    for seed in range(40):
        qr = gen_query_region(space, 0.01, 16.0, seed=seed)
        assert 1 <= qr.x0 and qr.x0 + qr.qx - 1 <= 6400
        assert 1 <= qr.y0 and qr.y0 + qr.qy - 1 <= 6400
        seen.add((qr.x0, qr.y0))
    assert len(seen) > 30  # origins actually vary with the seed
    again = gen_query_region(space, 0.01, 16.0, seed=11)
    assert again == gen_query_region(space, 0.01, 16.0, seed=11)


def test_query_region_infeasible():
    space = SpatialSpace(6400, 6400, 64)
    with pytest.raises(ValueError):
        gen_query_region(space, 0.5, 256.0, seed=1)  # qx would exceed W
    with pytest.raises(ValueError):
        gen_query_region(space, 0.0, 1.0, seed=1)
