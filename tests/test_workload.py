"""Qualifying-set and query-region generators."""

import hashlib
import math
import random
import re
from collections import Counter
from itertools import accumulate, combinations

import pytest

from memsrs.relational import exact_ceil
from memsrs.spatial import QueryRegion, SpatialSpace
from memsrs.workload import (Relation, _uniform_counts, _uniform_subset,
                             gen_query_region)
from tests.oracles import whole_range_uniform_subset


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
    # 0.07 * 100 drifts above 7 and is shaved back; a product far below
    # the shave's 1e-9 still qualifies one tuple, not none
    for n, sigma, want in ((100, 0.07, 7), (2_621_440, 1e-16, 1),
                           (1000, 5e-324, 1)):
        assert exact_ceil(sigma, n) == want
        assert len(Relation(n, 0).qualifying_set(sigma)) == want


def test_same_seed_same_content():
    a = Relation(n=500, seed=42)
    b = Relation(n=500, seed=42)
    qa, qb = a.qualifying_set(0.1), b.qualifying_set(0.1)
    assert qa == qb
    c = Relation(n=500, seed=43)
    assert c.qualifying_set(0.1) != qa


# -- the uniform draw ----------------------------------------------------------

# (n, sigma) reaching each path of the uniform draw, with the random calls
# that path makes.  Every draw keeps ids by a byte mask; then "empty"
# (m = 0) and "all" keep the mask as it is; "sparse" (m < n/256, where
# c = 1 keeps about n/256 ids) and "surplus" drop a sample of the kept
# ids; "shortfall" adds ids (256*m/n = 128 exactly there, so half its
# masks come up short); "almost-all" (c = 256) keeps every id and drops
# a sample.
_PATHS = {
    "empty": (1000, 0.0, {("randbytes",)}),
    "sparse": (1000, 0.002, {("randbytes", "sample")}),
    "surplus": (40, 0.1, {("randbytes", "sample")}),
    "shortfall": (40, 0.5, {("randbytes", "randrange")}),
    "almost-all": (1000, 0.999, {("randbytes", "sample")}),
    "all": (1000, 1.0, {("randbytes",)}),
}


class _Recording(random.Random):
    """A generator that records which of the draw's random calls it served."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = set()

    def randbytes(self, n):
        self.calls.add("randbytes")
        return super().randbytes(n)

    def randrange(self, *args):
        self.calls.add("randrange")
        return super().randrange(*args)

    def sample(self, *args, **kw):
        self.calls.add("sample")
        return super().sample(*args, **kw)


@pytest.mark.parametrize("path", _PATHS)
def test_uniform_draw_is_an_exact_ascending_subset(path):
    n, sigma, calls = _PATHS[path]
    m = exact_ceil(sigma, n)
    seen = set()
    for seed in range(60):
        rng = _Recording(f"{seed}:qualifying")
        q = _uniform_subset(rng, n, m)
        assert q == Relation(n, seed).qualifying_set(sigma)
        assert q == whole_range_uniform_subset(
            random.Random(f"{seed}:qualifying"), n, m)
        assert type(q) is tuple and len(q) == m
        assert all(type(t) is int for t in q)
        assert all(a < b for a, b in zip(q, q[1:]))
        assert not q or 1 <= q[0] and q[-1] <= n
        seen.add(tuple(sorted(rng.calls)))
    # every path is reached by at least one of these seeds
    assert calls <= seen


@pytest.mark.parametrize("n", [4095, 4096, 4097, 3 * 2**16 + 5])
def test_uniform_draw_matches_the_whole_range_draw_across_blocks(n):
    for sigma in (0.0005, 0.1, 0.5, 0.999, 1.0):
        m = exact_ceil(sigma, n)
        for seed in range(3):
            assert (_uniform_subset(random.Random(seed), n, m)
                    == whole_range_uniform_subset(random.Random(seed), n, m))


def test_uniform_draw_matches_the_whole_range_draw_at_320mb():
    n, m = 2_621_440, exact_ceil(0.1, 2_621_440)
    assert (_uniform_subset(random.Random("0:qualifying"), n, m)
            == whole_range_uniform_subset(random.Random("0:qualifying"), n, m))


def _bucketed(ids, n, width):
    """How many of `ids` each row of `width` consecutive ids of 1..n holds."""
    counts = [0] * -(-n // width)
    for v in ids:
        counts[(v - 1) // width] += 1
    return tuple(counts)


def test_counts_equal_the_bucketed_ids_on_every_path():
    # every path of the draw, the exact fit (a mask that keeps m ids, no
    # trim and no top-up) among them, counted over width 1, a width that
    # divides neither n, and a width above n
    seen = set()
    for n, sigma, _ in _PATHS.values():
        m = exact_ceil(sigma, n)
        for seed in range(60):
            rel = Relation(n, seed)
            ids = rel.qualifying_set(sigma)
            for width in (1, 7, n + 3):
                assert (rel.qualifying_counts(sigma, width)
                        == _bucketed(ids, n, width))
            rng = _Recording(f"{seed}:qualifying")
            _uniform_counts(rng, n, m, 7)
            seen.add((0 < m < n, tuple(sorted(rng.calls))))
    assert {(True, ("randbytes", "sample")), (True, ("randbytes", "randrange")),
            (True, ("randbytes",))} <= seen


@pytest.mark.parametrize("sigma", [1e-5, 1e-3, 0.1, 0.5, 0.999])
def test_counts_equal_the_bucketed_ids_across_selectivities(sigma):
    # many rows of a device's 6400 tips, which does not divide n
    n = 3 * 2**16 + 5
    for seed in range(3):
        rel = Relation(n, seed)
        ids = rel.qualifying_set(sigma)
        for width in (6400, 4096, n + 1):
            assert (rel.qualifying_counts(sigma, width)
                    == _bucketed(ids, n, width))
    assert rel.qualifying_counts(sigma, 1) == _bucketed(ids, n, 1)


@pytest.mark.parametrize("width, message", [
    (0, "row width 0 is below 1"),
    (2.0, "row width must be an integer, got 2.0"),
    (True, "row width must be an integer, got True"),
])
def test_counts_reject_a_bad_row_width_by_name(width, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Relation(10, 0).qualifying_counts(0.5, width)


# sha256 of repr(Relation(n, seed).qualifying_set(sigma)), as drawn when
# the kept ids were listed over the whole range at once: no default CSV
# row depends on which ids are drawn, so these pin the draws themselves
_DRAW_DIGESTS = {
    (2_621_440, 0, 0.1):
        "2fe35ba1ccf08855ad76a133fea9cebe1e71003d56cefbce7081689f19b78199",
    (40_960, 3, 0.1):
        "cf66682e016741e969529579468a200af6f9f8c91644ad6eb4b931b8da1064c1",
    (1000, 7, 0.5):
        "4bff03f88f5e6c3faa0e82e138a4b6dd44b15448bf93e884d2b28cf80e4bd148",
    (3 * 2**16 + 5, 1, 0.002):
        "0cf5856dde56b555f717f2c2b9c68791f6d0e32f22bb9eb09401444f23860241",
    (4097, 2, 0.999):
        "5f2e3288d6589460973e70a2230475f1b640ee0b6c0745ba55897ba9de450d3f",
}


@pytest.mark.parametrize("n, seed, sigma", _DRAW_DIGESTS)
def test_qualifying_set_draws_are_pinned(n, seed, sigma):
    q = Relation(n, seed).qualifying_set(sigma)
    assert (hashlib.sha256(repr(q).encode()).hexdigest()
            == _DRAW_DIGESTS[n, seed, sigma])


def test_uniform_draw_keeps_the_ids_whose_byte_is_below_c():
    # the mask keeps id i when its byte is below c = ceil(256*m/n); a
    # surplus is only trimmed and a shortfall only topped up, so the draw
    # lies inside the kept ids or holds them all
    n, sigma = 3 * 2**16 + 5, 0.1
    m = exact_ceil(sigma, n)
    c = -(-256 * m // n)
    for seed in range(4):
        raw = random.Random(f"{seed}:qualifying").randbytes(n)
        kept = {i for i, b in enumerate(raw, 1) if b < c}
        q = set(Relation(n, seed).qualifying_set(sigma))
        assert q <= kept if len(kept) >= m else kept <= q


# Over T seeds an id's inclusion count is Binomial(T, m/n).  Each check
# allows the counts whose two tails each hold at most 1e-7 of that exact
# distribution, so a uniform draw fails one of the ~2100 checks below with
# probability under 5e-4.
_T = 2000


def _binomial_range(trials, p, tail=1e-7):
    """(lo, hi) with P(count < lo) and P(count > hi) each at most `tail`
    for count ~ Binomial(trials, p), 0 < p < 1."""
    pmf = [math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1)
                    - math.lgamma(trials - k + 1) + k * math.log(p)
                    + (trials - k) * math.log1p(-p))
           for k in range(trials + 1)]
    lo = next(k for k, s in enumerate(accumulate(pmf)) if s > tail)
    hi = trials - next(k for k, s in enumerate(accumulate(reversed(pmf)))
                       if s > tail)
    return lo, hi


@pytest.mark.parametrize("path", ["sparse", "surplus", "shortfall",
                                  "almost-all"])
def test_uniform_draw_includes_each_id_with_chance_m_over_n(path):
    n, sigma, _ = _PATHS[path]
    m = exact_ceil(sigma, n)
    counts = Counter()
    for seed in range(_T):
        counts.update(Relation(n, seed).qualifying_set(sigma))
    lo, hi = _binomial_range(_T, m / n)
    assert [t for t in range(1, n + 1) if not lo <= counts[t] <= hi] == []


def test_uniform_draw_picks_every_pair_of_five_equally_often():
    # 2 of 5 ids: each of the 10 subsets has chance 1/10 per draw
    trials = 5000
    counts = Counter(Relation(5, seed).qualifying_set(0.4)
                     for seed in range(trials))
    assert set(counts) == set(combinations(range(1, 6), 2))
    lo, hi = _binomial_range(trials, 0.1)
    assert all(lo <= c <= hi for c in counts.values())


@pytest.mark.parametrize("n, seed, message", [
    (0, 1, "relation tuple count 0 is below 1"),
    (-5, 1, "relation tuple count -5 is below 1"),
    (2.5, 1, "relation tuple count must be an integer, got 2.5"),
    (True, 1, "relation tuple count must be an integer, got True"),
    ("10", 1, "relation tuple count must be an integer, got '10'"),
    (10, "1", "relation seed must be an integer, got '1'"),
    (10, 1.5, "relation seed must be an integer, got 1.5"),
    (10, False, "relation seed must be an integer, got False"),
])
def test_relation_rejects_bad_fields_by_name(n, seed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Relation(n, seed)


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


@pytest.mark.parametrize("frac, aspect, name, value", [
    (math.inf, 1.0, "size fraction", "inf"),
    (math.nan, 1.0, "size fraction", "nan"),
    (-0.01, 1.0, "size fraction", "-0.01"),
    (0.01, math.inf, "aspect", "inf"),
    (0.01, math.nan, "aspect", "nan"),
    (0.01, -1.0, "aspect", "-1.0"),
    (0.01, 0.0, "aspect", "0.0"),
])
def test_query_region_rejects_bad_shape_by_value(frac, aspect, name, value):
    space = SpatialSpace(6400, 6400, 64)
    with pytest.raises(ValueError, match=f"query {name} must be positive and "
                                         f"finite, got {value}$"):
        gen_query_region(space, frac, aspect, seed=1)


@pytest.mark.parametrize("frac, aspect, message", [
    (True, 1.0, "query size fraction must be a real number, got True"),
    ("0.01", 1.0, "query size fraction must be a real number, got '0.01'"),
    (None, 1.0, "query size fraction must be a real number, got None"),
    (0.01, False, "query aspect must be a real number, got False"),
    (0.01, "1", "query aspect must be a real number, got '1'"),
    (0.01, [1.0], "query aspect must be a real number, got [1.0]"),
], ids=["frac-bool", "frac-str", "frac-none", "aspect-bool", "aspect-str",
        "aspect-list"])
def test_query_region_rejects_a_shape_that_is_not_a_real_number(
        frac, aspect, message):
    # True once drew the whole space, and a str failed on a bare compare
    space = SpatialSpace(6400, 6400, 64)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen_query_region(space, frac, aspect, seed=1)


@pytest.mark.parametrize("frac, aspect", [(1, 1), (1, 1.0), (1.0, 1)])
def test_query_region_takes_int_and_float_shapes_alike(frac, aspect):
    space = SpatialSpace(64, 64, 64)
    assert (gen_query_region(space, frac, aspect, seed=3)
            == gen_query_region(space, 1.0, 1.0, seed=3)
            == QueryRegion(1, 1, 64, 64))


@pytest.mark.parametrize("frac, aspect", [(0.01, 1e308), (1e300, 1e300)])
def test_query_region_rejects_overflowing_shape_by_value(frac, aspect):
    # finite inputs whose width:height product overflows to inf
    space = SpatialSpace(6400, 6400, 64)
    with pytest.raises(ValueError, match=re.escape(
            f"query of size fraction {frac} and aspect {aspect} "
            f"does not fit the space") + "$"):
        gen_query_region(space, frac, aspect, seed=1)


@pytest.mark.parametrize("frac, aspect", [(0.01, 10**400), (10**400, 1.0),
                                          (10**400, 10**400)],
                         ids=["aspect", "frac", "both"])
def test_query_region_rejects_huge_integer_shape_by_value(frac, aspect):
    # integers too large for a float, where the float check above stops
    space = SpatialSpace(6400, 6400, 64)
    with pytest.raises(ValueError, match=re.escape(
            f"query of size fraction {frac} and aspect {aspect} "
            f"does not fit the space") + "$"):
        gen_query_region(space, frac, aspect, seed=1)
