"""Synthetic workload generators: qualifying tuple sets and query regions.
Everything is a pure function of its seed."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add
from typing import Tuple

from .device import check_integer
from .relational import check_selectivity, exact_ceil
from .spatial import QueryRegion, SpatialSpace

# the uniform draw lists its kept ids over blocks of this many ids
_BLOCK = 2**12
_BLOCK_IDS = tuple(range(1, _BLOCK + 1))


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
        return _uniform_subset(random.Random(f"{self.seed}:qualifying"),
                               self.n, exact_ceil(sigma, self.n))


def _uniform_subset(rng: random.Random, n: int, m: int) -> Tuple[int, ...]:
    """A uniform m-subset of 1..n, ascending.

    One random byte per id keeps it with probability c/256, c =
    ceil(256*m/n), so about m ids or a few more are kept; then a uniform
    sample of the surplus is dropped, or missing ids are drawn uniformly
    by rejection.  A Bernoulli sample of a given size is a uniform subset
    of that size, and trimming or topping it up uniformly keeps it
    uniform.  The kept ids are listed block by block, offset from one
    shared tuple of ids, so only kept ids become Python ints."""
    c = -(-256 * m // n)
    mask = rng.randbytes(n).translate(b"\1" * c + bytes(256 - c))
    picked: list = []
    for off in range(0, n, _BLOCK):
        picked += map(add, compress(_BLOCK_IDS, mask[off:off + _BLOCK]),
                      repeat(off))
    surplus = len(picked) - m
    if surplus > 0:
        keep = bytearray(b"\1") * len(picked)
        for i in rng.sample(range(len(picked)), surplus):
            keep[i] = 0
        picked = compress(picked, keep)
    elif surplus < 0:
        taken = bytearray(mask)
        for _ in range(-surplus):
            i = rng.randrange(n)
            while taken[i]:
                i = rng.randrange(n)
            taken[i] = 1
            picked.append(i + 1)
        picked.sort()
    return tuple(picked)


def gen_query_region(space: SpatialSpace, size_fraction: float, aspect: float,
                     seed: int = 0) -> QueryRegion:
    """Rectangle of the given area fraction and width:height ratio at a
    uniformly random in-bounds origin."""
    for name, value in (("size fraction", size_fraction), ("aspect", aspect)):
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
