"""Walkthrough: simplicial models and integer homology of the subset spaces.

The space of at-most-k-point subsets of the circle is the k-torus with
tuples identified when they have the same underlying set.  On the staircase
triangulation that identification is simplicial after two barycentric
subdivisions, so its homology is a finite Smith-normal-form computation.
The pair space comes out a closed band (circle homology); the triple space
comes out a homology 3-sphere.  The build returns a keyed model, each vertex
keyed by its point set, so a stratum is the full subcomplex on the keys of
one size: at n = 3 the singletons form a circle, the pairs an open Moebius
band and the triples an open solid torus, each with the homology of a
circle.  Collapsing the pair stratum reproduces the table of projective
3-space modulo its 1-skeleton.

Expect under two seconds of total runtime (1.2 s, the best of three runs on
a 2-vCPU machine, Python 3.11.7).  Wall times go to stderr, so stdout is the
same on every run.
"""

import sys
import time

from expcircle.complexes import (
    build_exp_model,
    build_symmetric_product,
    build_torus_complex,
    dense_smith_normal_form,
    homology,
    relative_quotient_homology,
    rp3_collapse_oracle,
)

print("=" * 72)
print("1. Smith normal form: the least entry clears its row and column")
print("=" * 72)

for m in ([[2]], [[1, 1], [1, 1]], [[3, -2]], [[2, 0], [0, 3]]):
    print(f"  invariants{m} = {dense_smith_normal_form(m)}")

print()
print("=" * 72)
print("2. The tori being quotiented")
print("=" * 72)

for k in (2, 3):
    t = build_torus_complex(k, 3)
    print(f"  {k}-torus, n = 3: counts {t.counts()}, homology {homology(t)}")

print()
print("=" * 72)
print("3. Pairs: the subset space of size <= 2 is a closed band")
print("=" * 72)

e2 = build_exp_model(2, 3).complex
print(f"  counts {e2.counts()}, euler {e2.euler_characteristic()}")
print(f"  homology: {homology(e2)}   (the circle pattern: a closed band)")

print()
print("=" * 72)
print("4. Permutations alone are not enough: the symmetric product")
print("=" * 72)

t0 = time.perf_counter()
sp3 = build_symmetric_product(3, 3).complex
print(f"  3-torus / permutations: {homology(sp3)}")
print(f"symmetric product: {time.perf_counter() - t0:.0f}s", file=sys.stderr)
print("  still circle-like: tuples with repeats are not yet collapsed")

print()
print("=" * 72)
print("5. Triples: the subset space is a homology 3-sphere")
print("=" * 72)

for n in (3, 4):
    t0 = time.perf_counter()
    e3 = build_exp_model(3, n).complex
    h = homology(e3)
    print(f"  n = {n}: counts {e3.counts()}, euler {e3.euler_characteristic()}")
    print(f"         homology {h}")
    print(f"exp_3 at n = {n}: {time.perf_counter() - t0:.0f}s", file=sys.stderr)

print()
print("=" * 72)
print("6. The open strata at n = 3: full subcomplexes on the keys of one size")
print("=" * 72)

model = build_exp_model(3, 3)
for size, name in ((1, "singletons, the circle"), (2, "pairs, the open Moebius band"),
                   (3, "triples, the open solid torus")):
    stratum, _ = model.full(lambda key, size=size: len(key) == size)
    print(f"  {name}: counts {stratum.counts()}")
    print(f"      homology {homology(stratum)}")
del model

print()
print("=" * 72)
print("7. Collapsing the pair stratum: the projective-space cross-check")
print("=" * 72)

t0 = time.perf_counter()
rel = relative_quotient_homology(3)
oracle = rp3_collapse_oracle()
print(f"  subset-space quotient: {rel}")
print(f"relative quotient: {time.perf_counter() - t0:.0f}s", file=sys.stderr)
print(f"  projective oracle:     {oracle}")
print(f"  tables match: {rel == oracle}")
