"""Walkthrough: simplicial models and integer homology of the subset spaces.

The space of at-most-k-point subsets of the circle is the k-torus with
tuples identified when they have the same underlying set.  On the staircase
triangulation that identification is simplicial after two barycentric
subdivisions, so its homology is a finite Smith-normal-form computation.
The pair space comes out a closed band (circle homology); the triple space
comes out a homology 3-sphere, and collapsing the pair stratum reproduces
the table of projective 3-space modulo its 1-skeleton.

Expect about nine seconds of total runtime.
"""

import time

from expcircle.complexes import (
    build_exp_complex,
    build_torus_complex,
    coordinate_permutation_action,
    homology,
    quotient_complex,
    relative_quotient_homology,
    rp3_collapse_oracle,
    smith_normal_form,
)

print("=" * 72)
print("1. Smith normal form, the engine")
print("=" * 72)

for m in ([[2]], [[1, 1], [1, 1]], [[3, -2]], [[2, 0], [0, 3]]):
    print(f"  invariants{m} = {smith_normal_form(m)}")

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

e2 = build_exp_complex(2, 3)
print(f"  counts {e2.counts()}, euler {e2.euler_characteristic()}")
print(f"  homology: {homology(e2)}   (the circle pattern: a closed band)")

print()
print("=" * 72)
print("4. Permutations alone are not enough: the symmetric product")
print("=" * 72)

t0 = time.perf_counter()
t3 = build_torus_complex(3, 3)
sp3 = quotient_complex(t3, coordinate_permutation_action(3, 3))
print(f"  3-torus / permutations: {homology(sp3)}   ({time.perf_counter() - t0:.0f}s)")
print("  still circle-like: tuples with repeats are not yet collapsed")

print()
print("=" * 72)
print("5. Triples: the subset space is a homology 3-sphere")
print("=" * 72)

for n in (3, 4):
    t0 = time.perf_counter()
    e3 = build_exp_complex(3, n)
    h = homology(e3)
    print(f"  n = {n}: counts {e3.counts()}, euler {e3.euler_characteristic()}")
    print(f"         homology {h}   ({time.perf_counter() - t0:.0f}s)")

print()
print("=" * 72)
print("6. Collapsing the pair stratum: the projective-space cross-check")
print("=" * 72)

t0 = time.perf_counter()
rel = relative_quotient_homology(3)
oracle = rp3_collapse_oracle()
print(f"  subset-space quotient: {rel}   ({time.perf_counter() - t0:.0f}s)")
print(f"  projective oracle:     {oracle}")
print(f"  tables match: {rel == oracle}")
