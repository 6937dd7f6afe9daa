"""Synthetic workload generators: qualifying tuple sets and query regions.
Everything is a pure function of its seed."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

from .relational import exact_ceil
from .spatial import QueryRegion, SpatialSpace

# range predicates select tuples whose first attribute exceeds this
PREDICATE_BOUND = 1_000_000
# how `Relation.qualifying_set` places the qualifying tuples
_QUAL_MODES = ("uniform", "clustered")


@dataclass(frozen=True)
class Relation:
    """A relation of `n` tuples whose predicate outcomes `seed` fixes."""
    n: int
    seed: int

    def qualifying_set(self, sigma: float, mode: str = "uniform") -> Tuple[int, ...]:
        """Tuple ids satisfying the predicate; exactly ceil(sigma*n) of them."""
        if not 0.0 <= sigma <= 1.0:
            raise ValueError("selectivity must be within [0, 1]")
        if mode not in _QUAL_MODES:
            raise ValueError(f"unknown qualifying mode {mode!r}")
        m = exact_ceil(sigma, self.n)
        if mode == "clustered":
            return tuple(range(1, m + 1))
        rng = random.Random(f"{self.seed}:qualifying")
        return tuple(sorted(rng.sample(range(1, self.n + 1), m)))


def gen_query_region(space: SpatialSpace, size_fraction: float, aspect: float,
                     seed: int = 0) -> QueryRegion:
    """Rectangle of the given area fraction and width:height ratio at a
    uniformly random in-bounds origin."""
    for name, value in (("size fraction", size_fraction), ("aspect", aspect)):
        if not 0 < value < math.inf:
            raise ValueError(f"query {name} must be positive and finite, got {value}")
    area = size_fraction * space.width * space.height
    if area * aspect == math.inf:
        raise ValueError(f"query of size fraction {size_fraction} and aspect "
                         f"{aspect} does not fit the space")
    qx = round(math.sqrt(area * aspect))
    if qx < 1:
        raise ValueError("query region smaller than one object")
    qy = round(area / qx)
    if qy < 1 or qx > space.width or qy > space.height:
        raise ValueError(f"query shape {qx}x{qy} does not fit the space")
    rng = random.Random(f"{seed}:origin")
    return QueryRegion(x0=rng.randint(1, space.width - qx + 1),
                       y0=rng.randint(1, space.height - qy + 1),
                       qx=qx, qy=qy)
