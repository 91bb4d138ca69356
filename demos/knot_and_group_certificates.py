"""Walkthrough: the singleton circle sits inside the subset space as a trefoil.

Two computations combine into the knot identification.  Numerically, the
boundary of a tube around the circle of antipodal pairs meets the band in a
single curve winding twice around the tube's core and three times around its
axis: a (2, 3) torus knot, and sliding loops of nearby pairs shows the
singleton circle is isotopic to it.  Algebraically, gluing the fundamental
groups of the cover pieces along a corner torus, generated by the rotation
loop and the meridional loop, shows the whole space is simply connected while
the complement of the singleton circle has the two-generator one-relation
group with s^3 = t^2, which abelianizes to Z but admits 12 homomorphisms to
the symmetric group S_3 where a free group on one generator admits 6.
"""

import math

from expcircle.config import (
    FiniteSubset,
    boundary_torus_curve,
    core_circle,
    hausdorff_distance,
    loop_a,
    loop_b,
    rotate,
    winding_diagnostic,
)
from expcircle.groups import (
    abelianization,
    coset_enumeration,
    count_homs,
    format_presentation,
    parse_presentation,
    pushout,
    pushout_band_piece,
    pushout_complement,
    pushout_exp3,
    symmetric_group,
    tietze_simplify,
)

print("=" * 72)
print("1. Winding diagnostics around the antipodal core")
print("=" * 72)

core = core_circle(samples=720)
print(f"  core circle itself: windings {winding_diagnostic(core)}")
for eps in (0.05, 0.1, 0.2):
    curve = boundary_torus_curve(eps, samples=720)
    print(f"  tube boundary at eps = {eps}: windings {winding_diagnostic(curve)}")

singleton = loop_a(FiniteSubset([0.3]), samples=720)
print(f"  singleton circle (tracked as a nearby pair): {winding_diagnostic(singleton)}")
print("  the (2, 3) pair is the torus-knot signature of the trefoil")

print()
print("=" * 72)
print("2. The whole space is simply connected")
print("=" * 72)

# the corner torus of the gluing is generated by the rotation loop a and the
# meridional loop b, in which each point slides to the next
generic = FiniteSubset([0.3, 1.7, 4.1])
for name, loop in (("a", loop_a(generic, samples=120)), ("b", loop_b(generic, samples=120))):
    gap = hausdorff_distance(loop.subsets[0], loop.subsets[-1])
    print(f"  corner loop {name} of {generic}: closes (end-to-start distance {gap:.1e})")
equilateral = FiniteSubset([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
fibre = loop_b(equilateral, samples=120)
dev = max(hausdorff_distance(s, rotate(k / 120 * 2 * math.pi / 3, equilateral))
          for k, s in enumerate(fibre.subsets))
print(f"  on the equilateral triple b is the exceptional fibre, rotation by t * 2pi/3: "
      f"{dev <= 1e-9} (largest distance {dev:.1e})")

full = pushout(pushout_exp3())
print(f"  glued presentation: {format_presentation(full)}")
cert = coset_enumeration(full, coset_limit=100)
print(f"  coset enumeration closes: order {cert.order} "
      f"(table verified: {cert.verify(full)})")

print()
print("=" * 72)
print("3. The punctured band piece")
print("=" * 72)

band = pushout(pushout_band_piece())
print(f"  glued presentation: {format_presentation(band)}")
simplified = tietze_simplify(band).presentation
print(f"  simplified:         {format_presentation(simplified)}")

print()
print("=" * 72)
print("4. The complement of the singleton circle")
print("=" * 72)

comp = pushout(pushout_complement())
text = format_presentation(comp)
print(f"  glued presentation: {text}")
# the text form is the one a reader copies: it must parse back to the group
if parse_presentation(text) != comp:
    raise SystemExit(f"the text form {text!r} does not parse back to the glued presentation")
print(f"  its text form parses back to it, all {len(comp.relators)} relators")
simplified = tietze_simplify(comp).presentation
print(f"  simplified:         {format_presentation(simplified)}")
print(f"  abelianization:     {abelianization(simplified)}")

s3 = symmetric_group(3)
homs = count_homs(simplified, s3)
free = count_homs(parse_presentation("gens: a; rels:"), s3)
print(f"  homomorphisms to S_3: {homs}; a free group on one generator has {free}")
print("  the complement group is not the unknot's: the circle is knotted,")
print("  and together with the winding data it is the (2, 3) torus knot")
