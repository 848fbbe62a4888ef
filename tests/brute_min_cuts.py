"""The exhaustive shore scan that the max-flow min-cut enumeration
(``htsp.hierarchy._min_cut_shores``) replaced.

Kept as a test oracle: it checks every one of the 2^(n-1) shores, exactly as
the package did before the max-flow rewrite, so the two can be compared cut
for cut and in order.  Its memory grows as 2^n, so it refuses graphs with
more than 24 vertices.
"""

from __future__ import annotations

import numpy as np

from htsp.errors import SizeLimitExceeded
from htsp.graph import CutView, MultiGraph

BRUTE_FORCE_VERTEX_LIMIT = 24


def brute_min_cuts(g: MultiGraph, limit: int = BRUTE_FORCE_VERTEX_LIMIT) -> list[CutView]:
    """All cuts of value 4, one per shore/complement pair.

    The canonical shore is the side not containing vertex 0.  Includes the
    singleton cuts.  Exhaustive over 2^(n-1) shores, so refuses graphs with
    more than ``limit`` vertices.
    """
    n = g.n
    if n > limit:
        raise SizeLimitExceeded(f"{n} vertices exceeds brute-force limit {limit}")
    if n < 2:
        return []
    total = 1 << (n - 1)
    counts = np.zeros(total, dtype=np.int16)
    masks = np.arange(total, dtype=np.int64)
    for u, v in g.endpoints:
        bu = (masks >> (u - 1)) & 1 if u > 0 else np.zeros(total, dtype=np.int64)
        bv = (masks >> (v - 1)) & 1 if v > 0 else np.zeros(total, dtype=np.int64)
        counts += (bu != bv).astype(np.int16)
    hits = np.nonzero(counts == 4)[0]
    out = []
    for mask in hits:
        if mask == 0:
            continue
        shore = frozenset(v for v in range(1, n) if (int(mask) >> (v - 1)) & 1)
        out.append(g.cut(shore))
    out.sort(key=lambda c: (len(c.shore), sorted(c.shore)))
    return out
