"""Bit-stability of the chart coordinates.

The charts feed byte-deterministic CLI records, so a change to how a chart is
computed must leave every float of its output unchanged, not merely close.
This test hashes the exact bits (`float.hex`) of every field of `exp3_coord`
and of every frame of `c3_orbit` over a seeded set of subsets, and compares
the digest with a pinned value.  The pinned value depends on the platform's
libm (`sin`, `cos`, `atan2` results); it was computed with glibc on x86-64.
"""

import hashlib
import math
import random

from expcircle.config import FiniteSubset, c3_orbit, exp3_coord

TWO_PI = 2.0 * math.pi

CHART_DIGEST = "8d45ea9ab3cd21e4ea46a83baea2ffdbf906a3382ddce1313b986927a7b63073"

# the near-coincident subsets of test_config.test_near_coincident_subsets_chart
NEAR = ((0.0, 2e-9, 3.0), (1.0, 1.0 + 1.5e-9, 4.0),
        (0.5, 3.0, 3.0 + 1.9e-9), (5.0, 2.0, 5.0 + 1.2e-9))


def chart_subsets():
    """400 random subsets of each size, 40 antipodal pairs, 40 equally spaced
    triples and the near-coincident subsets."""
    rng = random.Random(8)
    subsets = [FiniteSubset([rng.uniform(-10.0, 10.0) for _ in range(size)])
               for size in (1, 2, 3) for _ in range(400)]
    for _ in range(40):
        base = rng.uniform(0.0, TWO_PI)
        subsets.append(FiniteSubset([base, base + math.pi]))
    for _ in range(40):
        base = rng.uniform(0.0, TWO_PI)
        subsets.append(FiniteSubset([base, base + TWO_PI / 3, base + 2 * TWO_PI / 3]))
    subsets.extend(FiniteSubset(a) for a in NEAR)
    return subsets


def chart_fields(s):
    """Every float the charts give for s, in a fixed order."""
    c = exp3_coord(s)
    yield c.tag
    if c.tag == "C1":
        yield c.c1
    elif c.tag == "C2":
        yield from (c.c2.phi, c.c2.theta)
    else:
        yield from (c.c3.z.real, c.c3.z.imag, c.c3.theta)
        for f in c3_orbit(s):
            yield from (f.z.real, f.z.imag, f.theta)


def chart_digest(subsets):
    h = hashlib.sha256()
    for s in subsets:
        for x in chart_fields(s):
            h.update((x if isinstance(x, str) else float.hex(x)).encode())
            h.update(b";")
        h.update(b"\n")
    return h.hexdigest()


def test_chart_set_covers_every_stratum():
    sizes = [s.size for s in chart_subsets()]
    assert len(sizes) == 3 * 400 + 40 + 40 + len(NEAR)
    assert sizes.count(1) >= 400 and sizes.count(2) >= 440 and sizes.count(3) >= 440


def test_chart_bits_are_pinned():
    assert chart_digest(chart_subsets()) == CHART_DIGEST
