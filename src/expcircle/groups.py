"""Finitely presented groups and the certificates built from them.

Words are tuples of signed 1-based generator indices; presentations keep
their relators freely and cyclically reduced.  The toolkit covers exactly
what the gluing arguments for the subset space need: pushouts of
presentations along homomorphisms, deterministic Tietze simplification,
Todd-Coxeter coset enumeration (sound: it certifies finite orders and
otherwise reports inconclusive), abelianization through Smith normal form,
and exhaustive counting of homomorphisms into small finite groups.
Presentations and the records built on them (homomorphisms, pushout data,
Tietze results and order certificates) are immutable tuples; the first three
are checked on every path that builds one, _replace, copy and pickle included.
GroupHom accepts a homomorphism only when each relator image freely reduces
to nothing or is a target relator up to rotation and inversion, and refuses
every other image.

The three pushout data sets at the bottom encode the gluings used to compute
the fundamental groups of the full subset space, of the punctured band piece,
and of the complement of the singleton circle.  Their fixed relators and
images are written as words, with the text form beside each: the form
format_presentation prints and parse_presentation reads, as in 'gens: s t;
rels: s^3 t^-2, s t^-1'.  Names are split on spaces and relators on commas; a
word is 1 (the empty word) or space-separated terms name or name^n, n an int,
so a commutator is written out: x y x^-1 y^-1.  Finite groups are
multiplication tables checked for associativity on every triple of elements.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import permutations, product

from .complexes import AbelianInvariants, dense_smith_normal_form
from .moebius import checked_namedtuple

Word = tuple[int, ...]


def _free_reduce(word) -> Word:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyclic_reduce(word) -> Word:
    w = list(_free_reduce(word))
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _invert(word) -> Word:
    return tuple([-x for x in reversed(word)])


def _substitute(word, images) -> Word:
    """The word with each letter x replaced by images[|x| - 1], inverted
    when x is negative, freely reduced."""
    out: list[int] = []
    for x in word:
        img = images[abs(x) - 1]
        out.extend(img if x > 0 else _invert(img))
    return _free_reduce(out)


def _check_letters(word, n: int, what: str) -> None:
    """Refuse a letter that names none of n generators, before any reduction
    could cancel it."""
    for x in word:
        # 1.0 and True pass the range test but index no generator
        if type(x) is not int or x == 0 or abs(x) > n:
            raise ValueError(f"letter {x!r} out of range in {what}")


def _exponent_sums(word, n: int) -> list[int]:
    """Exponent sum of each of the n generators in the word."""
    sums = [0] * n
    for x in word:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return sums


def _canonical_relator(w: Word) -> Word:
    """Least rotation of the cyclically reduced word w or of its inverse; a
    normal form for relator comparison.  A least rotation starts with a
    least letter, so only those rotations are compared."""
    best = w
    for u in (w, _invert(w)):
        least = min(u, default=0)
        for k, x in enumerate(u):
            if x == least:
                rot = u[k:] + u[:k]
                if rot < best:
                    best = rot
    return best


_NAME = re.compile(r"[A-Za-z_]\w*")


class Presentation(checked_namedtuple("Presentation", ("generators", "relators"))):
    """Finitely presented group: a tuple of generator names and a tuple of
    reduced relator words.  Two presentations are equal when their
    generators and relators are."""

    __slots__ = ()

    def __new__(cls, generators, relators=()):
        generators = tuple(generators)
        for name in generators:
            if not (isinstance(name, str) and _NAME.fullmatch(name)):
                raise ValueError(f"bad generator name {name!r}")
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        n = len(generators)
        rels = []
        for w in relators:
            _check_letters(w, n, "relator")
            w = _cyclic_reduce(w)
            if w:
                rels.append(w)
        return tuple.__new__(cls, (generators, tuple(rels)))

    def __repr__(self):
        return f"Presentation({format_presentation(self)!r})"

    def rank_data(self):
        """Exponent-sum matrix of the relators, one row per relator."""
        return [_exponent_sums(w, len(self.generators)) for w in self.relators]


# ---------------------------------------------------------------------------
# word and presentation text format
# ---------------------------------------------------------------------------

MAX_WORD_LENGTH = 10**6

_TERM = re.compile(rf"({_NAME.pattern})(?:\^(-?[0-9]+))?")


def parse_word(text: str, generators) -> Word:
    """Read a word as format_word prints it: 1, or space-separated terms
    name or name^n with n an int, freely reduced.  A term that would take
    the word past MAX_WORD_LENGTH letters is refused before it is expanded."""
    index = {g: i + 1 for i, g in enumerate(generators)}
    terms = text.split()
    if terms == ["1"]:
        return ()
    if not terms:
        raise ValueError("empty word: the empty word is written 1")
    letters: list[int] = []
    for term in terms:
        m = _TERM.fullmatch(term)
        if not m or m[1] not in index:
            raise ValueError(f"term {term!r} is not g or g^n for a generator g")
        e = int(m[2] or 1)
        if len(letters) + abs(e) > MAX_WORD_LENGTH:
            raise ValueError(f"word longer than {MAX_WORD_LENGTH} letters")
        letters += [index[m[1]] if e > 0 else -index[m[1]]] * abs(e)
    return _free_reduce(letters)


def format_word(word: Word, generators) -> str:
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        x = word[i]
        j = i
        while j < len(word) and word[j] == x:
            j += 1
        e = (j - i) * (1 if x > 0 else -1)
        name = generators[abs(x) - 1]
        parts.append(name if e == 1 else f"{name}^{e}")
        i = j
    return " ".join(parts)


def parse_presentation(text: str) -> Presentation:
    """Read 'gens: s t; rels: s^3 t^-2, s t^-1' as format_presentation
    prints it: generator names split on spaces, relators on commas."""
    m = re.fullmatch(r"gens:([^;]*);\s*rels:(.*)", text.strip())
    if not m:
        raise ValueError("expected 'gens: ...; rels: ...'")
    gens = m[1].split()
    rels = m[2].split(",") if m[2].strip() else []
    return Presentation(gens, [parse_word(w, gens) for w in rels])


def format_presentation(p: Presentation) -> str:
    rels = ", ".join(format_word(w, p.generators) for w in p.relators)
    return f"gens: {' '.join(p.generators)}; rels: {rels}"


# ---------------------------------------------------------------------------
# homomorphisms and pushouts
# ---------------------------------------------------------------------------

class GroupHom(checked_namedtuple("GroupHom", ("source", "target", "images"))):
    """Homomorphism data: a tuple of image words, one per source generator.

    Each source relator must map to a word that freely reduces to nothing or
    is a target relator up to rotation and inversion; every other image is
    refused.  That rule is sufficient, not exact: it refuses some images that
    are trivial in the target, but it never accepts one that is not.
    """

    __slots__ = ()

    def __new__(cls, source: Presentation, target: Presentation, images):
        if len(images) != len(source.generators):
            raise ValueError("need one image word per source generator")
        n = len(target.generators)
        for w in images:
            _check_letters(w, n, "image")
        images = tuple(_free_reduce(w) for w in images)
        relators = set(map(_canonical_relator, target.relators))
        for w in source.relators:
            image = _substitute(w, images)
            if image and _canonical_relator(image) not in relators:
                raise ValueError(f"relator image {image} is neither trivial nor a target relator")
        return tuple.__new__(cls, (source, target, images))


class PushoutData(checked_namedtuple("PushoutData", ("corner", "left", "right"))):
    """Two homomorphisms out of a common corner group."""

    __slots__ = ()

    def __new__(cls, corner: Presentation, left: GroupHom, right: GroupHom):
        if left.source != corner or right.source != corner:
            raise ValueError("both homomorphisms must start at the corner group")
        return tuple.__new__(cls, (corner, left, right))


def pushout(data: PushoutData) -> Presentation:
    """Presentation of the pushout: generators of both targets, relators of
    both, plus left(c) right(c)^-1 for each corner generator c."""
    a, b = data.left.target, data.right.target
    names = list(a.generators)
    for name in b.generators:
        while name in names:
            name += "_"
        names.append(name)
    shift = [(g,) for g in range(len(a.generators) + 1, len(names) + 1)]  # b's letters follow a's
    rels = list(a.relators) + [_substitute(w, shift) for w in b.relators]
    for wa, wb in zip(data.left.images, data.right.images):
        rels.append(_free_reduce(wa + _invert(_substitute(wb, shift))))
    return Presentation(names, rels)


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------

# Guards on loops that terminate by construction.
TIETZE_STEP_BUDGET = 1000
REWRITE_ROUNDS = 64


class TietzeResult(namedtuple("TietzeResult",
                              ("presentation", "complete", "steps", "abelianization"))):
    """A simplified presentation, whether simplification ran to its end, the
    rules applied, and the abelianization, which the input shares."""

    __slots__ = ()


def _drop_generator(generators, relators, gen: int, replacement: Word) -> Presentation:
    """Remove generator gen (1-based) from the presentation on generators and
    relators, rewriting every relator through the replacement word (which
    must not mention gen) and renumbering the generators after it."""
    images = [(g,) for g in range(1, gen)] + [()] + [(g,) for g in range(gen, len(generators))]
    images[gen - 1] = _substitute(replacement, images)
    names = [g for i, g in enumerate(generators) if i + 1 != gen]
    return Presentation(names, [_substitute(w, images) for w in relators])


def _power_rule_rewrites(p: Presentation):
    """Rewrites harvested from two-letter power relators x^a y^b = 1: the
    substitutions x^a -> y^-b and y^b -> x^-a (and their inverses), the
    targeted rule that turns commutators like [x^a, z] into consequences of
    the power relation.  Each rule is (letter, run length, replacement,
    index of the source relator); a rule must never rewrite its own source,
    which would delete the power relation instead of using it."""
    rules = []
    for src, w in enumerate(p.relators):
        if len(set(abs(x) for x in w)) != 2:
            continue
        # after cyclic reduction, a run of x then a run of y
        x = w[0]
        i = 0
        while i < len(w) and w[i] == x:
            i += 1
        if i == len(w):
            continue
        y = w[i]
        if any(v != y for v in w[i:]):
            continue
        a, b = i, len(w) - i
        if a < 2 or b < 2:
            continue
        rules.append((x, a, (-y,) * b, src))
        rules.append((y, b, (-x,) * a, src))
    return rules


def _rewrite_all(word: Word, letter: int, count: int, repl: Word) -> Word:
    """Replace every run (letter)^count (and its inverse) by repl, repeatedly
    until none remains; the replacement never reintroduces the pattern
    letter, so this terminates (REWRITE_ROUNDS guards it anyway)."""
    for _ in range(REWRITE_ROUNDS):
        hit = False
        for sign in (1, -1):
            pat = (sign * letter,) * count
            rep = repl if sign > 0 else _invert(repl)
            for start in range(len(word) - count + 1):
                if word[start:start + count] == pat:
                    word = _free_reduce(word[:start] + rep + word[start + count:])
                    hit = True
                    break
            if hit:
                break
        if not hit:
            break
    return word


def tietze_simplify(p: Presentation) -> TietzeResult:
    """Deterministic presentation cleanup.

    Rules, in fixed priority: drop trivial relators and duplicates (up to
    rotation and inversion); eliminate a generator that occurs exactly once
    in some relator by solving for it; shrink relators through power-relation
    rewrites when that strictly shortens them.  The generator count never
    increases and (generators, total length) strictly decreases with every
    applied rule, so the loop terminates; exhausting TIETZE_STEP_BUDGET
    returns the current state flagged incomplete.  Every run re-checks that the
    abelianization is unchanged, and the result carries it.
    """

    def finish(cur: Presentation, complete: bool) -> TietzeResult:
        ab = abelianization(cur)
        if ab != abelianization(p):
            raise RuntimeError("internal error: simplification changed the abelianization")
        return TietzeResult(cur, complete, steps, ab)

    steps = 0
    cur = p
    while steps < TIETZE_STEP_BUDGET:
        # drop duplicates and empties
        seen = {}
        for w in cur.relators:
            key = _canonical_relator(w)
            if key and key not in seen:
                seen[key] = w
        if len(seen) != len(cur.relators):
            cur = Presentation(cur.generators, list(seen.values()))
            steps += 1
            continue

        # generator elimination: a relator where some generator occurs once
        elim = None
        for w in cur.relators:
            counts: dict[int, int] = {}
            for x in w:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for g, c in sorted(counts.items()):
                if c == 1:
                    k = next(i for i, x in enumerate(w) if abs(x) == g)
                    # w = u g v  =>  g = u^-1 v^-1 (or inverse when g appears inverted)
                    u, mid, v = w[:k], w[k], w[k + 1:]
                    rep = _invert(u) + _invert(v) if mid > 0 else _free_reduce(v + u)
                    elim = (g, _free_reduce(rep), w)
                    break
            if elim:
                break
        if elim:
            g, rep, used = elim
            rest = [w for w in cur.relators if w is not used]
            cur = _drop_generator(cur.generators, rest, g, rep)
            steps += 1
            continue

        # power-relation rewriting, only when it strictly shortens
        rules = _power_rule_rewrites(cur)
        improved = False
        if rules:
            new_rels = []
            for widx, w in enumerate(cur.relators):
                best = w
                for letter, count, repl, src in rules:
                    if src == widx:
                        continue
                    cand = _cyclic_reduce(_rewrite_all(w, letter, count, repl))
                    if len(cand) < len(best):
                        best = cand
                new_rels.append(best)
                if best != w:
                    improved = True
            if improved:
                cur = Presentation(cur.generators, [w for w in new_rels if w])
                steps += 1
                continue
        return finish(cur, complete=True)
    return finish(cur, complete=False)


# ---------------------------------------------------------------------------
# coset enumeration (Todd-Coxeter)
# ---------------------------------------------------------------------------

class OrderCertificate(namedtuple("OrderCertificate", ("conclusive", "order", "table"))):
    """Outcome of a coset enumeration over the trivial subgroup.

    When conclusive, order is the group order and table the closed coset
    table (table[c][d] for the 2*rank directions, generator then inverse
    alternating).  Inconclusive enumerations never claim anything about
    infinite groups.
    """

    __slots__ = ()

    def verify(self, p: Presentation) -> bool:
        """Re-check the table: complete, relator-stable, and transitive."""
        if not self.conclusive or self.table is None:
            return False
        n = len(self.table)
        rank = len(p.generators)
        for row in self.table:
            if len(row) != 2 * rank or any(not 0 <= x < n for x in row):
                return False
        for d in range(rank):
            fwd = [row[2 * d] for row in self.table]
            bwd = [row[2 * d + 1] for row in self.table]
            if sorted(fwd) != list(range(n)):
                return False
            if any(bwd[fwd[c]] != c for c in range(n)):
                return False
        for w in p.relators:
            for c in range(n):
                cur = c
                for x in reversed(w):
                    cur = self.table[cur][2 * (abs(x) - 1) + (0 if x > 0 else 1)]
                if cur != c:
                    return False
        reached = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                for t in self.table[c]:
                    if t not in reached:
                        reached.add(t)
                        nxt.append(t)
            frontier = nxt
        return len(reached) == n


def coset_enumeration(p: Presentation, coset_limit: int = 10000) -> OrderCertificate:
    """Todd-Coxeter over the trivial subgroup with a union-find table.

    Closes and returns the group order, or reports inconclusive once more
    than coset_limit cosets have been allocated, merged ones included; the
    count is checked after each relator's scan, so a scan may pass the limit
    before it is stopped.
    """
    if coset_limit <= 0:
        raise ValueError("coset limit must be positive")
    ngens = len(p.generators)
    ndirs = 2 * ngens
    rels = [
        tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in reversed(w))
        for w in p.relators
    ]

    labels: list[int] = []
    neighbors: list[list[int]] = []

    def add_vertex() -> int:
        labels.append(len(labels))
        neighbors.append([-1] * ndirs)
        return len(labels) - 1

    def find(c: int) -> int:
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def unify(c1: int, c2: int):
        stack = [(c1, c2)]
        while stack:
            u, v = stack.pop()
            u, v = find(u), find(v)
            if u == v:
                continue
            if u > v:
                u, v = v, u
            labels[v] = u
            for d in range(ndirs):
                n1, n2 = neighbors[u][d], neighbors[v][d]
                if n1 == -1:
                    neighbors[u][d] = n2
                elif n2 != -1:
                    stack.append((n1, n2))

    def follow(c: int, d: int) -> int:
        c = find(c)
        inv = d ^ 1
        if neighbors[c][d] == -1:
            nv = add_vertex()
            neighbors[c][d] = nv
            neighbors[nv][inv] = c
        return find(neighbors[c][d])

    add_vertex()
    to_visit = 0
    while to_visit < len(labels):
        c = find(to_visit)
        if c == to_visit:
            for rel in rels:
                cur = c
                for d in rel:
                    cur = follow(cur, d)
                unify(cur, c)
                if len(labels) > coset_limit:
                    # too many cosets ever allocated: give up soundly
                    return OrderCertificate(conclusive=False, order=None, table=None)
        to_visit += 1

    cosets = [i for i in range(len(labels)) if find(i) == i]
    if any(neighbors[c][d] == -1 for c in cosets for d in range(ndirs)):
        # a direction no relator ever touches: the table cannot close
        # (a generator missing from all relators spans a free factor)
        return OrderCertificate(conclusive=False, order=None, table=None)
    index = {c: i for i, c in enumerate(cosets)}
    table = [[index[find(neighbors[c][d])] for d in range(ndirs)] for c in cosets]
    cert = OrderCertificate(conclusive=True, order=len(cosets), table=table)
    if not cert.verify(p):
        raise RuntimeError("internal error: coset table failed its own verification")
    return cert


# ---------------------------------------------------------------------------
# abelianization and hom counting
# ---------------------------------------------------------------------------

def abelianization(p: Presentation) -> AbelianInvariants:
    """Smith form of the exponent-sum matrix, one row per relator: free
    rank plus torsion.  No relators give no invariants, so the group is
    free abelian on the generators."""
    diag = dense_smith_normal_form(p.rank_data())
    return AbelianInvariants(len(p.generators) - len(diag), tuple(d for d in diag if d > 1))


class FiniteGroup:
    """Finite group given by its multiplication table, entries the ints
    0..order-1.

    The table must have an identity, an inverse in every row and be
    associative: (xy)z = x(yz) is checked for every x, y and z, one row
    xy against x(y·) at a time.
    """

    def __init__(self, table):
        self.table = t = [list(row) for row in table]
        self.order = n = len(t)
        for row in t:
            if len(row) != n:
                raise ValueError("multiplication table must be square")
            # 0.0 passes the range check but indexes no row; a bool is no
            # element index either
            if any(type(x) is not int for x in row):
                raise ValueError("multiplication table has an entry that is not an int")
            if any(not 0 <= x < n for x in row):
                raise ValueError("multiplication table has an entry outside 0..order-1")
        elems = range(n)
        identity_row = list(elems)
        identities = [e for e in elems
                      if t[e] == identity_row and all(t[x][e] == x for x in elems)]
        if not identities:
            raise ValueError("multiplication table has no identity")
        self.identity = e = identities[0]
        if any(e not in row for row in t):
            raise ValueError("multiplication table has an element with no inverse")
        self.inverse = [row.index(e) for row in t]
        for y, ty in enumerate(t):
            for tx in t:  # row xy against x(yz) for every z
                if t[tx[y]] != [tx[v] for v in ty]:
                    raise ValueError("multiplication table is not associative")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as a multiplication table (n small)."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(map(p.__getitem__, q))] for q in elems]
        for p in elems
    ]
    return FiniteGroup(table)


def count_homs(p: Presentation, g: FiniteGroup) -> int:
    """Exact number of homomorphisms into g, by exhausting all generator
    assignments and evaluating every relator."""
    k = len(p.generators)
    if g.order**k > 10**8:
        raise ValueError("assignment space too large")
    table, inverse, e = g.table, g.inverse, g.identity
    count = 0
    for assignment in product(range(g.order), repeat=k):
        for w in p.relators:
            cur = e
            for x in w:
                cur = table[cur][assignment[x - 1] if x > 0 else inverse[assignment[-x - 1]]]
            if cur != e:
                break
        else:
            count += 1
    return count


# ---------------------------------------------------------------------------
# the three gluing computations
# ---------------------------------------------------------------------------

def pushout_exp3() -> PushoutData:
    """Gluing for the full subset space: a solid-torus neighborhood of the
    order-3 fibre (circle group on s) meets a neighborhood of the band
    (circle group on t) in a thickened torus with generators a (rotation
    direction) and b (point-to-next-point direction).  The rotation loop
    covers the order-2 core twice and the order-3 fibre three times; the
    meridional loop is the band generator on one side and, after sliding to
    the equal-spacing position, the fibre generator on the other.
    """
    corner = Presentation(("a", "b"), [(1, 2, -1, -2)])  # a b a^-1 b^-1
    a_side = Presentation(("s",))
    b_side = Presentation(("t",))
    j = GroupHom(corner, a_side, [(1, 1, 1), (1,)])  # a -> s^3, b -> s
    i = GroupHom(corner, b_side, [(1, 1), (1,)])     # a -> t^2, b -> t
    return PushoutData(corner=corner, left=j, right=i)


def pushout_band_piece() -> PushoutData:
    """Gluing for the punctured band piece: a thickened torus (generators a,
    b) attached to the band (generator c) along a circle that covers the
    band core twice."""
    corner = Presentation(("t",))
    torus = Presentation(("a", "b"), [(1, 2, -1, -2)])  # a b a^-1 b^-1
    band = Presentation(("c",))
    into_torus = GroupHom(corner, torus, [(1,)])   # t -> a
    into_band = GroupHom(corner, band, [(1, 1)])   # t -> c^2
    return PushoutData(corner=corner, left=into_torus, right=into_band)


def pushout_complement() -> PushoutData:
    """Gluing for the complement of the singleton circle: same cover as the
    full space, but the band piece is punctured, so its group is the
    band-piece result <t, u | [t^2, u]> with u the meridional image."""
    corner = Presentation(("a", "b"), [(1, 2, -1, -2)])  # a b a^-1 b^-1
    a_side = Presentation(("s",))
    b_side = Presentation(("t", "u"), [(1, 1, 2, -1, -1, -2)])  # t^2 u t^-2 u^-1
    j = GroupHom(corner, a_side, [(1, 1, 1), (1,)])  # a -> s^3, b -> s
    i = GroupHom(corner, b_side, [(1, 1), (2,)])     # a -> t^2, b -> u
    return PushoutData(corner=corner, left=j, right=i)
