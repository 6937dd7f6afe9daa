"""Qualifying-set and query-region generators."""

import hashlib
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memsrs.device import cmu_defaults
from memsrs.relational import exact_ceil
from memsrs.spatial import QueryRegion, SpatialSpace
from memsrs.workload import Relation, _hypergeometric, gen_query_region
from tests.oracles import hypergeometric_inversion

CMU = cmu_defaults()
# the most tuples the reference device holds: one sector each
CAPACITY = CMU.n_tips * CMU.sectors_per_region


def test_relation_tuple_count_320mb():
    rel = Relation(n=320 * 2**20 // (16 * 8), seed=1)
    assert rel.n == 2_621_440


def test_qualifying_cardinality_is_exact():
    rel = Relation(n=1000, seed=3)
    # ceil(sigma*n) without float-product drift: 0.1*1000 is exactly 100
    for sigma, want in ((0.0, 0), (0.001, 1), (0.0015, 2), (0.1, 100),
                        (0.5, 500), (1.0, 1000)):
        q = rel.qualifying_set(sigma, 64)
        assert len(q) == want
        assert len(set(q)) == len(q)
        assert all(1 <= t <= 1000 for t in q)
    # 0.07 * 100 drifts above 7 and is shaved back; a product far below
    # the shave's 1e-9 still qualifies one tuple, not none
    for n, sigma, want in ((100, 0.07, 7), (2_621_440, 1e-16, 1),
                           (1000, 5e-324, 1)):
        assert exact_ceil(sigma, n) == want
        assert len(Relation(n, 0).qualifying_set(sigma, 6400)) == want


def test_same_seed_same_content():
    a = Relation(n=500, seed=42)
    b = Relation(n=500, seed=42)
    qa, qb = a.qualifying_set(0.1, 64), b.qualifying_set(0.1, 64)
    assert qa == qb
    c = Relation(n=500, seed=43)
    assert c.qualifying_set(0.1, 64) != qa


# -- the count-first draw ------------------------------------------------------

class _Fixed:
    """A generator whose `random()` always returns `u`."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@st.composite
def _laws(draw):
    """(total, good, draws): rows of up to two device widths, and rows of
    all but that many ids, out of up to the device's capacity."""
    total = draw(st.integers(1, CAPACITY))
    few = draw(st.integers(0, min(total, 2 * CMU.n_tips)))
    return (total, draw(st.integers(0, total)),
            draw(st.sampled_from((few, total - few))))


@settings(max_examples=150, deadline=None)
@given(law=_laws(), u=st.floats(0, 1, exclude_max=True))
@example(law=(CAPACITY, CAPACITY // 10, CMU.n_tips), u=0.5)
@example(law=(CAPACITY, CAPACITY // 2, CAPACITY - 1), u=0.999999)
def test_hypergeometric_inverts_u_as_the_exact_search_does(law, u):
    k, gap = hypergeometric_inversion(*law, u)
    if gap > Fraction(1, 10**9):
        assert _hypergeometric(_Fixed(u), *law) == k


def _bucketed(ids, n, width):
    """How many of `ids` each row of `width` consecutive ids of 1..n holds."""
    counts = [0] * -(-n // width)
    for v in ids:
        counts[(v - 1) // width] += 1
    return tuple(counts)


def _check_draw(rel, sigma, width):
    """The listing at `width` is exact, ascending and counted by the
    counts at that width."""
    q = rel.qualifying_set(sigma, width)
    assert type(q) is tuple and len(q) == exact_ceil(sigma, rel.n)
    assert all(type(t) is int for t in q)
    assert all(a < b for a, b in zip(q, q[1:]))
    assert not q or 1 <= q[0] and q[-1] <= rel.n
    assert rel.qualifying_counts(sigma, width) == _bucketed(q, rel.n, width)


# (n, sigma, width) from no qualifying id to all of them: fewer than one
# id in 256 qualifies ("sparse"), a tenth and half of 40 ids in ragged
# rows, all but one id in one row, and the rows' own width for each
_CASES = {
    "empty": (1000, 0.0, 64),
    "sparse": (1000, 0.002, 64),
    "surplus": (40, 0.1, 7),
    "shortfall": (40, 0.5, 16),
    "almost-all": (1000, 0.999, 6400),
    "all": (1000, 1.0, 64),
}


@pytest.mark.parametrize("path", _CASES)
def test_uniform_draw_is_an_exact_ascending_subset(path):
    n, sigma, width = _CASES[path]
    for seed in range(60):
        for w in (width, n + 3):
            _check_draw(Relation(n, seed), sigma, w)


def test_counts_equal_the_bucketed_ids_on_every_path():
    # every case above and a single id, over one-id rows, a width that
    # divides neither n and one row
    for n, sigma, _ in (*_CASES.values(), (1, 1.0, 1)):
        for seed in range(20):
            for width in (1, 7, n + 3):
                _check_draw(Relation(n, seed), sigma, width)


@pytest.mark.parametrize("sigma", [1e-5, 1e-3, 0.1, 0.5, 0.999])
def test_counts_equal_the_bucketed_ids_across_selectivities(sigma):
    # many rows of a device's 6400 tips, which does not divide n
    n = 3 * 2**16 + 5
    for seed in range(3):
        for width in (6400, 4096, n + 1):
            _check_draw(Relation(n, seed), sigma, width)


@pytest.mark.parametrize("n, sigma, width", [
    (1000, 0.0, 7), (1000, 1.0, 7), (1, 0.0, 1), (1, 1.0, 1), (1, 0.5, 6400),
    (500, 0.3, 1), (500, 0.3, 500), (500, 0.3, 10**9),
    (2_621_440, 1e-16, 6400), (2_621_440, 1.0, 6400),
], ids=["m=0", "m=n", "n=1-none", "n=1-all", "n=1-wide", "width-1",
        "width-n", "width-huge", "one-of-320mb", "all-of-320mb"])
def test_edge_draws_are_exact(n, sigma, width):
    for seed in range(3):
        rel = Relation(n, seed)
        assert sum(rel.qualifying_counts(sigma, width)) == exact_ceil(sigma, n)
        if exact_ceil(sigma, n) <= 10**5:   # not 2.6 million ids
            _check_draw(rel, sigma, width)


@pytest.mark.parametrize("sigma", [1e-16, 0.1, 1.0])
def test_the_largest_relation_the_device_holds_draws_exact_counts(sigma):
    # 67,500 rows of 6400 ids, drawn without a math domain or overflow error
    counts = Relation(CAPACITY, 0).qualifying_counts(sigma, CMU.n_tips)
    assert len(counts) == CAPACITY // CMU.n_tips
    assert all(0 <= c <= CMU.n_tips for c in counts)
    assert sum(counts) == exact_ceil(sigma, CAPACITY)


@pytest.mark.parametrize("width, message", [
    (0, "row width 0 is below 1"),
    (2.0, "row width must be an integer, got 2.0"),
    (True, "row width must be an integer, got True"),
])
def test_counts_reject_a_bad_row_width_by_name(width, message):
    for draw in (Relation(10, 0).qualifying_counts,
                 Relation(10, 0).qualifying_set):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            draw(0.5, width)


# sha256 of repr(Relation(n, seed).qualifying_set(sigma, 6400)), rows of
# the reference device's 6400 tips: no default CSV row depends on which
# ids are drawn, so these pin the draws themselves
_DRAW_DIGESTS = {
    (2_621_440, 0, 0.1):
        "3bfd5be6286188f073c837a73b5349a12af49100bff73513b25d5f6116107f1b",
    (40_960, 3, 0.1):
        "8710fc92bc69175d3b02a03ef04e86c1e1ae2027415b4c2606b70c7d5085bbef",
    (1000, 7, 0.5):
        "3418c891ef2816b65b9695a3af56891e10cde5d01aae1b8a2ae89672b9f60b7a",
    (3 * 2**16 + 5, 1, 0.002):
        "95562a8f35ca1588c62f5ebb668ccca5fead93e4ba38b74cb6d31e4a25bede79",
    (4097, 2, 0.999):
        "c9fdd14447cf96b672cc43ee766d7aef5aa0eb2ce5c45b3848a3e597cd4e96f9",
}


@pytest.mark.parametrize("n, seed, sigma", _DRAW_DIGESTS)
def test_qualifying_set_draws_are_pinned(n, seed, sigma):
    q = Relation(n, seed).qualifying_set(sigma, CMU.n_tips)
    assert (hashlib.sha256(repr(q).encode()).hexdigest()
            == _DRAW_DIGESTS[n, seed, sigma])


# Over T seeds a count's frequency is Binomial(T, p) for its exact chance
# p.  Each check allows the frequencies whose two tails each hold at most
# 1e-7 of that distribution, so a uniform draw fails one of the ~2200
# checks below with probability under 5e-4.
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
    n, sigma, width = _CASES[path]
    m = exact_ceil(sigma, n)
    counts = Counter()
    for seed in range(_T):
        counts.update(Relation(n, seed).qualifying_set(sigma, width))
    lo, hi = _binomial_range(_T, m / n)
    assert [t for t in range(1, n + 1) if not lo <= counts[t] <= hi] == []


def test_uniform_draw_picks_every_pair_of_five_equally_often():
    # 2 of 5 ids in rows of 2, 2 and 1: each of the 10 subsets has
    # chance 1/10 per draw
    trials = 5000
    counts = Counter(Relation(5, seed).qualifying_set(0.4, 2)
                     for seed in range(trials))
    assert set(counts) == set(combinations(range(1, 6), 2))
    lo, hi = _binomial_range(trials, 0.1)
    assert all(lo <= c <= hi for c in counts.values())


@pytest.mark.parametrize("width", [1, 2, 4, 6])
def test_every_three_of_six_ids_come_up_equally_often(width):
    trials = 4000
    counts = Counter(Relation(6, seed).qualifying_set(0.5, width)
                     for seed in range(trials))
    assert set(counts) == set(combinations(range(1, 7), 3))
    lo, hi = _binomial_range(trials, 1 / 20)
    assert all(lo <= c <= hi for c in counts.values())


def test_each_row_count_follows_its_hypergeometric_law():
    # 45 ids in rows of 16, 16 and a ragged 13, 18 of them qualifying:
    # whatever the rows before it drew, a row of r ids holds c of the 18
    # with chance C(18, c) C(27, r - c) / C(45, r)
    n, width, m = 45, 16, 18
    assert exact_ceil(m / n, n) == m
    freq = [Counter() for _ in range(3)]
    for seed in range(_T):
        counts = Relation(n, seed).qualifying_counts(m / n, width)
        for row, c in enumerate(counts):
            freq[row][c] += 1
    for row, r in enumerate((16, 16, 13)):
        for c in range(r + 1):
            p = Fraction(math.comb(m, c) * math.comb(n - m, r - c),
                         math.comb(n, r))
            if p == 0:
                assert freq[row][c] == 0
            else:
                lo, hi = _binomial_range(_T, float(p))
                assert lo <= freq[row][c] <= hi, (row, c)


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
