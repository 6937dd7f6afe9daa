"""Synthetic workload generators: qualifying tuple sets and query regions.
Everything is a pure function of its seed."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Tuple

from .device import check_integer, check_real
from .relational import check_selectivity, exact_ceil
from .spatial import QueryRegion, SpatialSpace


@dataclass(frozen=True)
class Relation:
    """A relation of `n` tuples whose predicate outcomes `seed` fixes."""
    n: int
    seed: int

    def __post_init__(self):
        check_integer("relation tuple count", self.n)
        if self.n < 1:
            raise ValueError(f"relation tuple count {self.n} is below 1")
        check_integer("relation seed", self.seed)

    def qualifying_set(self, sigma: float) -> Tuple[int, ...]:
        """Tuple ids satisfying the predicate, ascending: a uniform subset
        of exactly ceil(sigma*n) of them."""
        check_selectivity(sigma)
        return _uniform_subset(self._rng(), self.n, exact_ceil(sigma, self.n))

    def qualifying_counts(self, sigma: float, width: int) -> Tuple[int, ...]:
        """How many of `qualifying_set(sigma)`'s ids each row of `width`
        consecutive ids holds: entry r counts ids r*width+1..(r+1)*width.
        The same draw, counted instead of listed."""
        check_selectivity(sigma)
        check_integer("row width", width)
        if width < 1:
            raise ValueError(f"row width {width} is below 1")
        return _uniform_counts(self._rng(), self.n, exact_ceil(sigma, self.n),
                               width)

    def _rng(self) -> random.Random:
        return random.Random(f"{self.seed}:qualifying")


def _uniform_draw(rng: random.Random, n: int, m: int, width: int):
    """The random calls of a uniform m-subset of 1..n: (mask, counts,
    dropped, added).

    One random byte per id keeps it with probability c/256, c =
    ceil(256*m/n), so about m ids or a few more are kept: `mask` holds 1
    at each kept id's offset and `counts` how many ids it keeps in each
    row of `width` consecutive ids.  Then a uniform sample of the surplus
    is dropped (`dropped`, ranks among the kept ids), or missing ids are
    drawn uniformly by rejection (`added`, offsets).  A Bernoulli sample
    of a given size is a uniform subset of that size, and trimming or
    topping it up uniformly keeps it uniform."""
    c = -(-256 * m // n)
    mask = rng.randbytes(n).translate(b"\1" * c + bytes(256 - c))
    # a row's 0 and 1 bytes are the bits of one int, counted in C faster
    # than `bytes.count` counts them
    view = memoryview(mask)
    counts = [int.from_bytes(view[off:off + width], "little").bit_count()
              for off in range(0, n, width)]
    kept = sum(counts)
    dropped: list = []
    added: list = []
    if kept > m:
        dropped = rng.sample(range(kept), kept - m)
    elif kept < m:
        taken = bytearray(mask)
        for _ in range(m - kept):
            i = rng.randrange(n)
            while taken[i]:
                i = rng.randrange(n)
            taken[i] = 1
            added.append(i)
    return mask, counts, dropped, added


def _uniform_subset(rng: random.Random, n: int, m: int) -> Tuple[int, ...]:
    """The ids of the uniform draw, ascending, its mask counted as one
    row and its kept ids listed in one pass."""
    mask, _, dropped, added = _uniform_draw(rng, n, m, n)
    picked = list(compress(range(1, n + 1), mask))
    if dropped:
        keep = bytearray(b"\1") * len(picked)
        for i in dropped:
            keep[i] = 0
        picked = compress(picked, keep)
    elif added:
        picked += (i + 1 for i in added)
        picked.sort()
    return tuple(picked)


def _uniform_counts(rng: random.Random, n: int, m: int,
                    width: int) -> Tuple[int, ...]:
    """How many ids of the uniform draw each row of `width` consecutive
    ids holds, without listing them: each dropped rank and added id is
    charged to its row of the mask's counts."""
    _, counts, dropped, added = _uniform_draw(rng, n, m, width)
    if dropped:
        ends = list(accumulate(counts))
        for rank in dropped:
            counts[bisect_right(ends, rank)] -= 1
    for i in added:
        counts[i // width] += 1
    return tuple(counts)


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
