"""Finitely presented groups and the certificates built from them.

Words are tuples of signed 1-based generator indices; presentations keep
their relators freely and cyclically reduced.  The toolkit covers exactly
what the gluing arguments for the subset space need: pushouts of
presentations along homomorphisms, deterministic Tietze simplification,
Todd-Coxeter coset enumeration (sound: it certifies finite orders and
otherwise reports inconclusive), abelianization through Smith normal form,
and exhaustive counting of homomorphisms into small finite groups.
Presentations and the records built on them (homomorphisms, pushout data,
Tietze results and order certificates) are immutable tuples.

The three pushout data sets at the bottom encode the gluings used to compute
the fundamental groups of the full subset space, of the punctured band piece,
and of the complement of the singleton circle.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import islice, permutations, product

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
    return tuple(-x for x in reversed(word))


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
        if x == 0 or abs(x) > n:
            raise ValueError(f"letter {x} out of range in {what}")


def _exponent_sums(word, n: int) -> list[int]:
    """Exponent sum of each of the n generators in the word."""
    sums = [0] * n
    for x in word:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return sums


def _canonical_relator(w: Word) -> Word:
    """Least rotation of the cyclically reduced word w or of its inverse; a
    normal form for relator comparison."""
    best = w
    for u in (w, _invert(w)):
        for k in range(len(u)):
            rot = u[k:] + u[:k]
            if rot < best:
                best = rot
    return best


class Presentation(checked_namedtuple("Presentation", ("generators", "relators"))):
    """Finitely presented group: a tuple of generator names and a tuple of
    reduced relator words.  Two presentations are equal when their
    generators and relators are."""

    __slots__ = ()

    def __new__(cls, generators, relators=()):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        for name in generators:
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                raise ValueError(f"bad generator name {name!r}")
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


def canonical_form(p: Presentation) -> tuple:
    """Hashable normal form for equality up to generator renaming: the
    minimum, over all renamings, of the sorted canonical relator multiset
    (relators themselves compared up to rotation and inversion).  Brute
    force over renamings; presentations here have at most a handful of
    generators.  Renaming letters keeps a relator cyclically reduced, so
    each renamed relator needs only its least rotation."""
    n = len(p.generators)
    if n > 7:
        raise ValueError("canonical form only supported for up to 7 generators")
    best = None
    for perm in permutations(range(1, n + 1)):
        # letter x goes to rename[x]; a negative letter indexes from the end
        rename = (0, *perm, *(-g for g in reversed(perm)))
        mapped = tuple(sorted(_canonical_relator(tuple([rename[x] for x in w]))
                              for w in p.relators))
        if best is None or mapped < best:
            best = mapped
    return (n, best)


def same_up_to_renaming(p: Presentation, q: Presentation) -> bool:
    return canonical_form(p) == canonical_form(q)


# ---------------------------------------------------------------------------
# word and presentation text format
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<op>[\[\],^()])|(?P<int>-?\d+))")


def parse_word(text: str, generators) -> Word:
    """Parse a word: juxtaposition is product, ^n is a power, [x, y] is the
    commutator x y x^-1 y^-1, and w1 = w2 means w1 w2^-1."""
    index = {g: i + 1 for i, g in enumerate(generators)}
    if text.count("=") > 1:
        raise ValueError(f"more than one '=' in {text!r}")
    if "=" in text:
        lhs, rhs = text.split("=")
        return _free_reduce(parse_word(lhs, generators) + _invert(parse_word(rhs, generators)))

    pos = 0

    def parse_sequence(stop=None) -> tuple[int, ...]:
        nonlocal pos
        pieces: list[tuple[int, ...]] = []
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"cannot tokenize {text[pos:]!r}")
                break
            tok = m.group("name") or m.group("op") or m.group("int")
            pos = m.end()
            if stop and tok == stop:
                stop = None
                break
            if m.group("name"):
                if tok not in index:
                    raise ValueError(f"unknown generator {tok!r}")
                pieces.append((index[tok],))
            elif tok == "[":
                x = parse_sequence(stop=",")
                y = parse_sequence(stop="]")
                pieces.append(x + y + _invert(x) + _invert(y))
            elif tok == "(":
                pieces.append(parse_sequence(stop=")"))
            elif tok == "^":
                m2 = _TOKEN.match(text, pos)
                if not m2 or not m2.group("int"):
                    raise ValueError("^ must be followed by an integer")
                pos = m2.end()
                e = int(m2.group("int"))
                if not pieces:
                    raise ValueError("^ with nothing before it")
                last = pieces.pop()
                pieces.append(last * e if e >= 0 else _invert(last) * (-e))
            else:
                raise ValueError(f"unexpected token {tok!r}")
        if stop:
            raise ValueError(f"missing {stop!r}")
        return tuple(x for piece in pieces for x in piece)

    return _free_reduce(parse_sequence())


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
    """Parse the plain format 'gens: s t; rels: s^3 t^-2, s t^-1'."""
    m = re.fullmatch(r"\s*gens:\s*(?P<gens>[^;]*);\s*rels:\s*(?P<rels>.*)\s*", text.strip())
    if not m:
        raise ValueError("expected 'gens: ...; rels: ...'")
    gens = m.group("gens").split()
    rel_text = m.group("rels").strip()
    rels = []
    if rel_text:
        for chunk in _split_relators(rel_text):
            rels.append(parse_word(chunk, gens))
    return Presentation(gens, rels)


def _split_relators(text: str):
    # commas inside [x, y] belong to the commutator, not the relator list
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            yield text[start:i]
            start = i + 1
    tail = text[start:].strip()
    if tail:
        yield tail


def format_presentation(p: Presentation) -> str:
    rels = ", ".join(format_word(w, p.generators) for w in p.relators)
    return f"gens: {' '.join(p.generators)}; rels: {rels}"


# ---------------------------------------------------------------------------
# homomorphisms and pushouts
# ---------------------------------------------------------------------------

def _is_abelian_free_presentation(p: Presentation) -> bool:
    """True when every relator is a commutator of generators, so the group
    is free abelian on its generators and word triviality is decidable by
    exponent sums."""
    n = len(p.generators)
    commutators = {
        _canonical_relator((i, j, -i, -j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }
    return all(_canonical_relator(w) in commutators for w in p.relators)


class GroupHom(namedtuple("GroupHom", ("source", "target", "images", "verified"))):
    """Homomorphism data: a tuple of image words, one per source generator.

    Well-definedness (each source relator maps to a trivial word) is checked
    where decidable: free and free-abelian targets.  Elsewhere the
    exponent-sum necessary condition is enforced and the hom is recorded as
    unverified.  verified is computed at construction, never given.
    """

    __slots__ = ()

    def __new__(cls, source: Presentation, target: Presentation, images):
        if len(images) != len(source.generators):
            raise ValueError("need one image word per source generator")
        for w in images:
            _check_letters(w, len(target.generators), "image")
        images = tuple(_free_reduce(w) for w in images)
        unchecked = tuple.__new__(cls, (source, target, images, False))
        return tuple.__new__(cls, (source, target, images, unchecked._check()))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, copy and pickle through
        # __getnewargs__: both run the checks and compute verified again
        return cls(*islice(iterable, 3))

    def __getnewargs__(self):
        return self[:3]

    def _check(self) -> bool:
        images_of_relators = [_substitute(w, self.images) for w in self.source.relators]
        if not self.target.relators:
            # free target: trivial iff freely reduced to nothing
            bad = [w for w in images_of_relators if w]
            if bad:
                raise ValueError(f"relator image {bad[0]} is nontrivial in the free target")
            return True
        n = len(self.target.generators)
        if _is_abelian_free_presentation(self.target):
            for w in images_of_relators:
                if any(_exponent_sums(w, n)):
                    raise ValueError("relator image nontrivial in the free-abelian target")
            return True
        # necessary condition in homology
        mat = self.target.rank_data()
        for w in images_of_relators:
            sums = _exponent_sums(w, n)
            if any(sums) and not _in_row_span(mat, sums):
                raise ValueError("relator image fails the abelianized necessary condition")
        return False


def _in_row_span(rows, vec):
    """Exact membership of vec in the integer row span, via the Smith form
    of the stacked matrix: the span is unchanged iff the invariants are."""
    if not any(vec):
        return True
    if not rows:
        return False
    return dense_smith_normal_form(rows) == dense_smith_normal_form(list(rows) + [list(vec)])


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


class TietzeResult(namedtuple("TietzeResult", ("presentation", "complete", "steps"))):
    __slots__ = ()


def _drop_generator(p: Presentation, gen: int, replacement: Word) -> Presentation:
    """Remove generator gen (1-based), rewriting every relator through the
    replacement word (which must not mention gen) and renumbering the
    generators after it."""
    images = [(g,) for g in range(1, gen)] + [()] + [(g,) for g in range(gen, len(p.generators))]
    images[gen - 1] = _substitute(replacement, images)
    names = [g for i, g in enumerate(p.generators) if i + 1 != gen]
    return Presentation(names, [_substitute(w, images) for w in p.relators])


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
    abelianization is unchanged.
    """

    def finish(result: TietzeResult) -> TietzeResult:
        if abelianization(result.presentation) != abelianization(p):
            raise RuntimeError("internal error: simplification changed the abelianization")
        return result

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
            cur = _drop_generator(Presentation(cur.generators, rest), g, rep)
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
        return finish(TietzeResult(cur, complete=True, steps=steps))
    return finish(TietzeResult(cur, complete=False, steps=steps))


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

    Closes and returns the group order when at most coset_limit cosets are
    ever live; otherwise reports inconclusive.
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
    """Smith form of the exponent-sum matrix: free rank plus torsion."""
    rows = p.rank_data()
    n = len(p.generators)
    if not rows:
        return AbelianInvariants(n, ())
    diag = dense_smith_normal_form(rows)
    rank = n - len(diag)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(rank, torsion)


class FiniteGroup:
    """Finite group given by its multiplication table."""

    def __init__(self, table):
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        for row in self.table:
            if len(row) != self.order:
                raise ValueError("multiplication table must be square")
            if any(x not in range(self.order) for x in row):
                raise ValueError("multiplication table has an entry outside 0..order-1")
        t, elems = self.table, range(self.order)
        identities = [e for e in elems if all(t[e][x] == x == t[x][e] for x in elems)]
        if not identities:
            raise ValueError("multiplication table has no identity")
        self.identity = identities[0]
        if any(self.identity not in row for row in self.table):
            raise ValueError("multiplication table has an element with no inverse")
        self.inverse = [row.index(self.identity) for row in self.table]
        if any(t[t[x][y]][z] != t[x][t[y][z]] for x in elems for y in elems for z in elems):
            raise ValueError("multiplication table is not associative")

    def mul(self, x, y):
        return self.table[x][y]


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as a multiplication table (n small)."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in elems]
        for p in elems
    ]
    return FiniteGroup(table)


def count_homs(p: Presentation, g: FiniteGroup) -> int:
    """Exact number of homomorphisms into g, by exhausting all generator
    assignments and evaluating every relator."""
    k = len(p.generators)
    if g.order**k > 10**8:
        raise ValueError("assignment space too large")
    count = 0
    for assignment in product(range(g.order), repeat=k):
        ok = True
        for w in p.relators:
            cur = g.identity
            for x in w:
                t = assignment[abs(x) - 1]
                if x < 0:
                    t = g.inverse[t]
                cur = g.mul(cur, t)
            if cur != g.identity:
                ok = False
                break
        if ok:
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
    corner = Presentation(["a", "b"], [parse_word("[a, b]", ["a", "b"])])
    a_side = Presentation(["s"])
    b_side = Presentation(["t"])
    j = GroupHom(corner, a_side, [(1, 1, 1), (1,)])  # a -> s^3, b -> s
    i = GroupHom(corner, b_side, [(1, 1), (1,)])     # a -> t^2, b -> t
    return PushoutData(corner=corner, left=j, right=i)


def pushout_band_piece() -> PushoutData:
    """Gluing for the punctured band piece: a thickened torus (generators a,
    b) attached to the band (generator c) along a circle that covers the
    band core twice."""
    corner = Presentation(["t"])
    torus = Presentation(["a", "b"], [parse_word("[a, b]", ["a", "b"])])
    band = Presentation(["c"])
    into_torus = GroupHom(corner, torus, [(1,)])   # t -> a
    into_band = GroupHom(corner, band, [(1, 1)])   # t -> c^2
    return PushoutData(corner=corner, left=into_torus, right=into_band)


def pushout_complement() -> PushoutData:
    """Gluing for the complement of the singleton circle: same cover as the
    full space, but the band piece is punctured, so its group is the
    band-piece result <t, u | [t^2, u]> with u the meridional image."""
    corner = Presentation(["a", "b"], [parse_word("[a, b]", ["a", "b"])])
    a_side = Presentation(["s"])
    gens = ["t", "u"]
    b_side = Presentation(gens, [parse_word("[t^2, u]", gens)])
    j = GroupHom(corner, a_side, [(1, 1, 1), (1,)])  # a -> s^3, b -> s
    i = GroupHom(corner, b_side, [(1, 1), (2,)])     # a -> t^2, b -> u
    return PushoutData(corner=corner, left=j, right=i)
