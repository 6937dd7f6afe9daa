"""Byte-level readback on a reduced device geometry.

Every placement writes its media image with `write_image_*`; random
queries are then compiled and read back with `Emulator.read`, which is
the emulator's byte-returning, row-by-row path.  `expected` gives the
bytes each read must return under its placement's contract.

The geometry is the one of acceptance criterion 9: 64 tips with 16
active, so the relational-parallel plans (64-tuple band rows) and the
block plans (64-cell blocks) both need more than one activation layer.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from memsrs.device import DeviceParams
from memsrs.emulator import Emulator, MediaImage, Timing
from memsrs.linear import (DsmLayout, NsmLayout, compile_dsm, compile_nsm,
                           write_image_dsm, write_image_nsm)
from memsrs.relational import (RangeQuery, RelationSchema, RelLayoutRP,
                               RelLayoutRSY, compile_rp, compile_rsy,
                               write_image_rp, write_image_rsy)
from memsrs.spatial import (QueryRegion, SpatialSpace, SSYLayout,
                            build_block_grid, compile_sp, compile_ssy,
                            write_image_sp, write_image_ssy)

SCHEMA = RelationSchema(k=4, n=1600)
SIDE = 64
SELECTIVITIES = (0.05, 0.1, 0.25, 0.5)
EXTENTS = (1, 2, 5, 9, 16, 24, 40, 70)
# Each seed asks every (projection, selectivity) pair and every (width,
# height) pair once, in its own order, with its own qualifying sets and
# origins; a fixed query mix keeps the seeds' costs comparable.
PROJECTIONS = tuple((1,) + tuple(w for w in range(2, SCHEMA.k + 1)
                                 if mask >> (w - 2) & 1)
                    for mask in range(2 ** (SCHEMA.k - 1)))
RELATIONAL_QUERIES = tuple((proj, sel) for proj in PROJECTIONS
                           for sel in SELECTIVITIES)
SPATIAL_QUERIES = tuple((qx, qy) for qx in EXTENTS for qy in EXTENTS)
# the full row-store read, then three relational and two spatial reads a query
N_READS = 1 + 3 * len(RELATIONAL_QUERIES) + 2 * len(SPATIAL_QUERIES)


def device() -> DeviceParams:
    return DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                        n_active_tips=16)


def encode(a: int, b: int) -> bytes:
    """The 8-byte payload stored for tuple a, attribute b (or object (a, b))."""
    return struct.pack(">II", a, b)


@dataclass(frozen=True)
class Read:
    placement: str
    projected: Tuple[int, ...] = ()        # relational queries
    qualifying: Tuple[int, ...] = ()       # relational-parallel only
    box: Optional[Tuple[int, int, int, int]] = None  # spatial: x0, y0, x1, y1
    timing: Optional[Timing] = None
    data: bytes = b""


def run(params: DeviceParams, seed: int) -> List[Read]:
    """Write every image, then read back the seed's random queries."""
    rng = random.Random(f"{seed}:readback")
    rsy = RelLayoutRSY(params, SCHEMA)
    rp = RelLayoutRP(params, SCHEMA)
    nsm = NsmLayout(params, SCHEMA)
    dsm = DsmLayout(params, SCHEMA)
    space = SpatialSpace(width=SIDE, height=SIDE)
    ssy = SSYLayout(params, space)
    grid = build_block_grid(params, space, ratio=1.0)
    images = {}
    for name, layout, write in (("rsy", rsy, write_image_rsy),
                                ("rp", rp, write_image_rp),
                                ("nsm", nsm, write_image_nsm),
                                ("dsm", dsm, write_image_dsm),
                                ("ssy", ssy, write_image_ssy),
                                ("sp", grid, write_image_sp)):
        images[name] = MediaImage(params)
        write(layout, images[name], encode)

    em = Emulator(params)
    reads: List[Read] = []
    # the row store reads the whole relation whatever the query asks
    t, data = em.read(compile_nsm(nsm), images["nsm"])
    reads.append(Read("nsm-griffin", projected=tuple(range(1, SCHEMA.k + 1)),
                      timing=t, data=data))
    for proj, sel in rng.sample(RELATIONAL_QUERIES, len(RELATIONAL_QUERIES)):
        qual = tuple(sorted(rng.sample(range(1, SCHEMA.n + 1),
                                       math.ceil(sel * SCHEMA.n))))
        q = RangeQuery(projected=proj, predicate_attr=1, bound=0,
                       selectivity=sel)
        for placement, plan, image, qualifying in (
                ("relational-sequential-yu", compile_rsy(rsy, q), "rsy", ()),
                ("dsm-griffin", compile_dsm(dsm, q), "dsm", ()),
                ("relational-parallel", compile_rp(rp, q, qual), "rp", qual)):
            t, data = em.read(plan, images[image])
            reads.append(Read(placement, projected=proj, qualifying=qualifying,
                              timing=t, data=data))
    for qx, qy in rng.sample(SPATIAL_QUERIES, len(SPATIAL_QUERIES)):
        qr = QueryRegion(x0=rng.randint(1, SIDE), y0=rng.randint(1, SIDE),
                         qx=qx, qy=qy)
        box = qr.clip(space)
        for placement, plan, image in (
                ("spatial-sequential-yu", compile_ssy(ssy, qr), "ssy"),
                ("spatial-parallel", compile_sp(grid, qr), "sp")):
            t, data = em.read(plan, images[image])
            reads.append(Read(placement, box=box, timing=t, data=data))
    return reads


def expected(read: Read) -> List[bytes]:
    """The payloads the read must return, sorted; each exactly once."""
    if read.box is not None:
        x0, y0, x1, y1 = read.box
        want = [encode(x, y) for x in range(x0, x1 + 1)
                for y in range(y0, y1 + 1)]
    elif read.placement == "relational-parallel":
        # the predicate band in full, the other bands for qualifiers only
        want = [encode(v, 1) for v in range(1, SCHEMA.n + 1)]
        want += [encode(v, w) for v in read.qualifying
                 for w in read.projected if w != 1]
    else:
        want = [encode(v, w) for v in range(1, SCHEMA.n + 1)
                for w in read.projected]
    return sorted(want)


def returned(read: Read) -> List[bytes]:
    """The read's bytes cut into payloads, sorted."""
    data = read.data
    return sorted(data[i:i + 8] for i in range(0, len(data), 8))


def describe(read: Read) -> str:
    if read.box is not None:
        return "box " + " ".join(map(str, read.box))
    text = "proj " + " ".join(map(str, read.projected))
    if read.placement == "relational-parallel":
        text += f" qual {len(read.qualifying)}"
    return text
