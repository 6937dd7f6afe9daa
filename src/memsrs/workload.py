"""Synthetic workload generators: qualifying tuple sets and query regions.
Everything is a pure function of its seed."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

from .device import check_integer, check_real
from .relational import check_selectivity, exact_ceil
from .spatial import QueryRegion, SpatialSpace


@dataclass(frozen=True)
class Relation:
    """A relation of `n` tuples whose predicate outcomes `seed` fixes.

    Its qualifying ids are drawn row by row: each row of `width`
    consecutive ids gets its count from the hypergeometric law given the
    ids and qualifying count still unplaced, and then that many of its
    ids, uniformly.  By the chain rule the ceil(sigma*n) ids are a
    uniform subset of 1..n, up to double rounding of the pmf; which ids
    they are is fixed by the seed and the row width."""
    n: int
    seed: int

    def __post_init__(self):
        check_integer("relation tuple count", self.n)
        if self.n < 1:
            raise ValueError(f"relation tuple count {self.n} is below 1")
        check_integer("relation seed", self.seed)

    def qualifying_set(self, sigma: float, width: int) -> Tuple[int, ...]:
        """Tuple ids satisfying the predicate, ascending: exactly
        ceil(sigma*n) of them, each row's ids a sorted sample of the row."""
        rng, counts = self._draw(sigma, width)
        n, ids = self.n, []
        for off, count in zip(range(0, n, width), counts):
            ids += sorted(rng.sample(range(off + 1, min(off + width, n) + 1),
                                     count))
        return tuple(ids)

    def qualifying_counts(self, sigma: float, width: int) -> Tuple[int, ...]:
        """How many of `qualifying_set(sigma, width)`'s ids each row of
        `width` consecutive ids holds: entry r counts ids
        r*width+1..(r+1)*width.  The same draw, counted instead of listed."""
        return tuple(self._draw(sigma, width)[1])

    def _draw(self, sigma: float, width: int):
        """The seeded generator and, drawn from it, each row's count."""
        check_selectivity(sigma)
        check_integer("row width", width)
        if width < 1:
            raise ValueError(f"row width {width} is below 1")
        rng = random.Random(f"{self.seed}:qualifying")
        n, left, counts = self.n, exact_ceil(sigma, self.n), []
        for off in range(0, n, width):
            count = _hypergeometric(rng, n - off, left, min(width, n - off))
            counts.append(count)
            left -= count
        return rng, counts


def _hypergeometric(rng: random.Random, total: int, good: int,
                    draws: int) -> int:
    """How many of `draws` ids taken uniformly from `total`, `good` of
    them qualifying, qualify: one `rng.random()` inverted by searching
    out from the mode, mode, mode+1, mode-1, mode+2, ..., each step's pmf
    from the last by the law's integer ratio (Kachitvichyanukul and
    Schmeiser, 1985)."""
    lo, hi = max(0, draws + good - total), min(good, draws)
    rest = total - good - draws      # the bad ids not drawn, less k
    k = up = down = (draws + 1) * (good + 1) // (total + 2)
    # the mode's pmf C(good,k)C(total-good,draws-k)/C(total,draws): the
    # ratio of three binomial pmfs at p = draws/total, whose powers cancel
    p_up = p_down = math.exp(
        _log_binomial_pmf(k, good, draws, total)
        + _log_binomial_pmf(draws - k, total - good, draws, total)
        - _log_binomial_pmf(draws, total, draws, total))
    u = rng.random() - p_up
    while u >= 0:
        if up < hi:
            p_up *= (good - up) * (draws - up) / ((up + 1) * (rest + up + 1))
            k = up = up + 1
            u -= p_up
            if u < 0:
                break
        if down > lo:
            p_down *= (down * (rest + down)
                       / ((good - down + 1) * (draws - down + 1)))
            k = down = down - 1
            u -= p_down
        elif up == hi:   # both tails spent: the rounded pmf sums below u
            break
    return k


def _log_binomial_pmf(x: int, n: int, draws: int, total: int) -> float:
    """log P(X = x) for X ~ Binomial(n, draws/total), 0 <= x <= n, by
    Loader's saddle-point expansion (2000): a sum of small terms, so no
    two large logs cancel as `lgamma` differences would."""
    if x == 0 or x == n:      # log((1-p)**n) or log(p**n)
        miss = draws if x == 0 else total - draws
        return n * math.log1p(-miss / total) if n else 0.0
    return (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
            - _bd0(x, n * draws / total)
            - _bd0(n - x, n * (total - draws) / total)
            - 0.5 * math.log(_TWO_PI * x * (n - x) / n))


_TWO_PI = 2 * math.pi
# log(n!) less Stirling's (n+1/2)log(n) - n + log(sqrt(2pi)), n = 1..15
_STIRLERR = [0.0] + [math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n
                     - 0.5 * math.log(_TWO_PI) for n in range(1, 16)]


def _stirlerr(n: int) -> float:
    """log(n!) less Stirling's approximation of it, n >= 1: the table up
    to 15, its asymptotic series above, where the series' next term is
    below 2e-16."""
    if n < 16:
        return _STIRLERR[n]
    r = 1 / n
    rr = r * r
    return r * (1 / 12 - rr * (1 / 360 - rr * (1 / 1260 - rr * (1 / 1680
                                                              - rr / 1188))))


def _bd0(x: int, mean: float) -> float:
    """x*log(x/mean) + mean - x, x >= 1: by its series in v = (x-mean)/
    (x+mean) when x is near the mean, where that form cancels."""
    d = x - mean
    if abs(d) >= 0.1 * (x + mean):
        return x * math.log(x / mean) - d
    v = d / (x + mean)
    s, term, vv, j = d * v, 2 * x * v, v * v, 3
    while True:
        term *= vv
        t = s + term / j
        if t == s:
            return s
        s, j = t, j + 2


def gen_query_region(space: SpatialSpace, size_fraction: float, aspect: float,
                     seed: int = 0) -> QueryRegion:
    """Rectangle of the given area fraction and width:height ratio at a
    uniformly random in-bounds origin."""
    for name, value in (("size fraction", size_fraction), ("aspect", aspect)):
        check_real(f"query {name}", value)
        if not 0 < value < math.inf:
            raise ValueError(f"query {name} must be positive and finite, got {value}")
    area = size_fraction * space.width * space.height
    try:
        qx = round(math.sqrt(area * aspect))
    except OverflowError:  # the product, or a factor, exceeds every float
        raise ValueError(f"query of size fraction {size_fraction} and aspect "
                         f"{aspect} does not fit the space") from None
    if qx < 1:
        raise ValueError("query region smaller than one object")
    qy = round(area / qx)
    if qy < 1 or qx > space.width or qy > space.height:
        raise ValueError(f"query shape {qx}x{qy} does not fit the space")
    rng = random.Random(f"{seed}:origin")
    return QueryRegion(x0=rng.randint(1, space.width - qx + 1),
                       y0=rng.randint(1, space.height - qy + 1),
                       qx=qx, qy=qy)
