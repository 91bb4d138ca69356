"""Simplicial models of subset spaces of the circle and integer homology.

The k-fold torus carries the permutation-symmetric staircase triangulation,
so both the coordinate-permutation action and the finer identification of
tuples with equal underlying sets act simplicially.  Quotients are taken
after two barycentric subdivisions, the standard regularity margin that makes
the identified complex compute the homology of the identified space.  The
identifier also returns each quotient vertex's key, so a stratum is the full
subcomplex on the vertices whose keys satisfy a predicate.  The second
subdivision is enumerated chain by chain, each chain built directly as its
quotient simplex, a sorted tuple of quotient vertex ids; the second
subdivision is never validated or sorted as a whole.  Only chains ending at
one chosen sd1 simplex per orbit of the group action are built, and the
flag memo holds only chains ending at a proper face of a chosen simplex.
Keys are invariant under the group, so a chain and its images land on the
same quotient simplex, and each orbit of chains has a member ending at a
chosen simplex.  For the subset spaces that is a sixth of the top chains at
k = 3 (the symmetric group acts freely on top simplices); it rests on the
torus triangulation being symmetric under coordinate permutations, which
the build checks before relying on it.  For the subset spaces even the first
subdivision is built, validated and keyed only on a fundamental domain, the
closure of the torus simplices with a sorted barycentre, which holds every
mapped chain.  Torus coordinates are integers scaled by lcm(1..k+1)**2, so
the barycentres of barycentres that key the identification are exact
without fractions.

Homology is computed over the integers through Smith normal form with exact
(arbitrary precision) arithmetic.  Validation looks up every facet of a
complex once and keeps the rows as a face table; each boundary matrix is
assembled from it in one pass, a tuple of rows per simplex beside one tuple
of signs that all columns of a dimension share.  The d o d check proves
most composite columns zero from the face identity (facet j of facet i is
facet i - 1 of facet j, for j < i), tested on whole slices of columns at
once, and sums exactly only the columns that proof cannot cover; no
product matrix is built.  Then the boundaries are reduced top-down, the
highest first, by smith_normal_form, the column reduction of persistent
homology on a SparseIntMatrix: each column is reduced on its lowest row
index, and the unit pivots are consumed.  A pivot is a pair of row and
value tuples with its +-1 at the lowest row, the input's own tuples for a
column that meets no pivot; only a column that does is copied into a dict
beside a max-heap of its rows.  Clearing (Chen-Kerber) skips every column
of a boundary that is a unit pivot row of the boundary one degree up,
since that column is an integer combination of the others (see
ChainComplexZ.homology); those rows pass from one reduction to the next as
a mask of one byte per row.  The small remainder of non-unit columns, the only place torsion can appear, is
finished by dense_smith_normal_form, the textbook routine on a dense list
of rows, which the small matrices of the group layer call directly.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, compress, count, permutations, repeat
from math import gcd, lcm
from operator import and_, contains, eq, is_not, itemgetter, lt, ne, not_


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Finite simplicial complex: vertices 0..n-1 and sorted vertex tuples
    per dimension, closed under taking faces.

    faces[d] is the face table of dimension d: for each d-simplex in order,
    the indices in simplices[d - 1] of its d + 1 facets, facet i dropping
    vertex i (faces[0] is empty)."""

    def __init__(self, vertex_count: int, simplices_by_dim):
        self.vertex_count = vertex_count
        self.simplices = [_sorted_unique(map(tuple, s)) for s in simplices_by_dim]
        while self.simplices and not self.simplices[-1]:
            self.simplices.pop()
        self._validate()

    def _validate(self):
        """Refuse what is not a complex, keeping the facet rows looked up."""
        if self.simplices[:1] != [[(v,) for v in range(self.vertex_count)]]:
            raise ValueError("dimension 0 must list every vertex exactly once")
        self.faces = [array("I")]
        for d, ss in enumerate(self.simplices[1:], 1):
            row = {f: i for i, f in enumerate(self.simplices[d - 1])}
            # strictly increasing vertices (checked column by column) and
            # found facets; on any failure the per-simplex loop names it
            ok = set(map(len, ss)) <= {d + 1} and all(
                all(map(lt, map(itemgetter(i), ss), map(itemgetter(i + 1), ss))) for i in range(d))
            facets = chain.from_iterable(map(combinations, ss, repeat(d)))
            rows = list(map(row.get, facets)) if ok else [None]
            if None in rows:
                for s in ss:
                    if len(s) != d + 1 or len(set(s)) != d + 1:
                        raise ValueError(f"degenerate simplex {s} in dimension {d}")
                    if list(s) != sorted(s):
                        raise ValueError(f"unsorted simplex {s}")
                    for f in combinations(s, d):
                        if f not in row:
                            raise ValueError(f"missing face {f} of {s}")
            # combinations drop the last vertex first; facet i drops vertex i
            rows = array("I", rows)
            table = rows[:]
            for i in range(d + 1):
                table[i::d + 1] = rows[d - i::d + 1]
            self.faces.append(table)

    @classmethod
    def from_maximal(cls, simplices):
        """Close a set of simplices (any dimensions) under taking faces."""
        by_dim: dict[int, set] = {}
        for s in simplices:
            s = tuple(sorted(set(s)))
            for k in range(1, len(s) + 1):
                by_dim.setdefault(k - 1, set()).update(combinations(s, k))
        if not by_dim:
            raise ValueError("empty complex")
        verts = sorted(v for (v,) in by_dim[0])
        if verts != list(range(len(verts))):
            raise ValueError("vertices must be 0..n-1 with no gaps")
        dim = max(by_dim)
        return cls(len(verts), [sorted(by_dim.get(d, ())) for d in range(dim + 1)])

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> list[int]:
        return [len(s) for s in self.simplices]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(s) for d, s in enumerate(self.simplices))

    def induced(self, vertices) -> list[list[tuple]]:
        """Full subcomplex on a vertex set: per dimension, the simplices whose
        vertices all lie in the set, in this complex's ids.  All dim + 1
        lists are kept, empty ones included."""
        keep = set(vertices)
        return [[s for s in ss if keep.issuperset(s)] for ss in self.simplices]

    def __repr__(self):
        return f"SimplicialComplex(counts={self.counts()})"


def _sorted_unique(items) -> list:
    """items sorted, each once: equal items sit side by side once sorted."""
    out = sorted(items)
    return list(compress(out, chain([True], map(ne, out[1:], out))))


def circle_complex(n: int) -> SimplicialComplex:
    """The n-gon triangulation of a circle."""
    if n < 3:
        raise ValueError("polygon needs n >= 3")
    return SimplicialComplex.from_maximal([(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# barycentric subdivision
# ---------------------------------------------------------------------------

def _proper_faces(s):
    for k in range(1, len(s)):
        yield from combinations(s, k)


def _subdivision_data(k: SimplicialComplex):
    """Vertex ids of the subdivision: one per simplex, in dimension order."""
    ids = {}
    origin = []
    for ss in k.simplices:
        for s in ss:
            ids[s] = len(origin)
            origin.append(s)
    return ids, origin


def _flags(k: SimplicialComplex, labels, ends=None):
    """Every chain of the face poset as the sorted tuple of its elements'
    labels (labels maps a simplex of k to an int); a chain of length L is an
    (L-1)-simplex of the subdivision.  Only chains ending at a simplex in
    ends (default: all of k) are yielded.  Every element of such a chain is
    a face of its last one, so chains are memoised only on the proper faces
    of ends: a top simplex is no one's face.

    Labels assigned in dimension order increase along every chain, so a
    chain is extended by an append; a smaller label goes in by a sorted
    insert (see _insert)."""
    if ends is None:
        ends = set(chain.from_iterable(k.simplices))
    need = {f for s in ends for f in _proper_faces(s)}
    memo: dict[tuple, list] = {}
    for s in chain.from_iterable(k.simplices):
        wanted = s in ends
        if wanted or s in need:
            label = labels[s]
            tail = (label,)
            cs = [tail]
            for f in _proper_faces(s):
                cs += [c + tail if c[-1] < label else _insert(c, label) for c in memo[f]]
            if s in need:
                memo[s] = cs
            if wanted:
                yield from cs


def _insert(c: tuple, label: int) -> tuple:
    """c with label in sorted position; a label already in c means an
    identification degenerates a simplex."""
    i = bisect_left(c, label)
    if c[i:i + 1] == (label,):
        raise ValueError("identification degenerates a simplex; the action is not "
                         "regular even after two subdivisions")
    return c[:i] + (label,) + c[i:]


def _complex_of_chains(k: SimplicialComplex, labels, ends, vertex_count: int):
    """The complex on vertices 0..vertex_count-1 of the chains _flags builds."""
    out = [[] for _ in range(k.dim + 1)]
    for c in _flags(k, labels, ends):
        out[len(c) - 1].append(c)
    return SimplicialComplex(vertex_count, out)


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision (combinatorial flags construction)."""
    ids, origin = _subdivision_data(k)
    return _complex_of_chains(k, ids, None, len(origin))


def _barycenter(simplex, coords, period: int):
    """Mean of the vertex coordinates, each lifted to within period/2 of the
    first vertex; valid because every simplex in the torus pipeline has
    diameter below period/2.  Coordinates are integers scaled so that every
    mean taken in the pipeline divides exactly."""
    pts = [coords[v] for v in simplex]
    out = []
    for j, ref in enumerate(pts[0]):
        total = 0
        for p in pts:
            d = (p[j] - ref) % period
            total += d - period if 2 * d > period else d
        out.append((ref + total // len(pts)) % period)
    return tuple(out)


# ---------------------------------------------------------------------------
# torus complexes and quotients
# ---------------------------------------------------------------------------

def _grid_point(i: int, k: int, n: int) -> tuple:
    """Grid point of vertex i of the k-torus: its base-n digits, most
    significant first."""
    digits = []
    for _ in range(k):
        i, r = divmod(i, n)
        digits.append(r)
    return tuple(reversed(digits))


def _grid_index(pt, n: int) -> int:
    """Vertex id of a grid point, coordinates taken modulo n."""
    out = 0
    for x in pt:
        out = out * n + x % n
    return out


def build_torus_complex(k: int, n: int) -> SimplicialComplex:
    """Staircase (Freudenthal) triangulation of the k-torus on an n-grid.

    Each grid cube is cut into k! simplices along coordinate orderings; the
    triangulation is invariant under permuting the torus coordinates.
    """
    if k not in (2, 3):
        raise ValueError(f"only k = 2 or 3 supported, got {k}")
    if n < 3:
        raise ValueError(f"grid must have n >= 3 subdivisions, got {n}")
    tops = set()
    for i in range(n**k):
        for perm in permutations(range(k)):
            v = list(_grid_point(i, k, n))
            simplex = [i]
            for axis in perm:
                v[axis] += 1
                simplex.append(_grid_index(v, n))
            tops.add(tuple(sorted(simplex)))
    return SimplicialComplex.from_maximal(tops)


def coordinate_permutation_action(k: int, n: int) -> list[list[int]]:
    """Vertex permutations of the torus grid induced by transposing the
    first two coordinates and by cycling all coordinates; these generate the
    full symmetric group acting on the torus complex."""
    def induced(cperm):
        table = []
        for i in range(n**k):
            pt = _grid_point(i, k, n)
            table.append(_grid_index([pt[c] for c in cperm], n))
        return table

    gens = [induced([1, 0] + list(range(2, k)))]
    if k > 2:
        gens.append(induced(list(range(1, k)) + [0]))
    return gens


def _close_group(vertex_count: int, generators) -> list[tuple]:
    idgen = tuple(range(vertex_count))
    group = {idgen}
    frontier = [idgen]
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(vertex_count)):
            raise ValueError("group generator is not a permutation of the vertices")
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                hg = tuple(h[g[i]] for i in range(vertex_count))
                if hg not in group:
                    group.add(hg)
                    nxt.append(hg)
        frontier = nxt
        if len(group) > 10000:
            raise ValueError("group closure too large")
    return sorted(group)


def _check_simplicial(k: SimplicialComplex, perms) -> None:
    """Refuse unless every vertex permutation in perms carries simplices of
    k to simplices of k; each dimension's set is built once for all."""
    for d in range(1, k.dim + 1):
        have = set(k.simplices[d])
        for perm in perms:
            for s in k.simplices[d]:
                img = tuple(sorted(perm[v] for v in s))
                if len(set(img)) != d + 1 or img not in have:
                    raise ValueError("action does not carry simplices to simplices")


def _identify_after_two_subdivisions(k1: SimplicialComplex, label_fn):
    """Subdivide k1 once more, identifying vertices on the fly.

    k1 is the first subdivision; its simplices are the vertices of the
    second.  label_fn maps an sd1 simplex to (key, is_representative), and
    equal keys become one quotient vertex, numbered in dimension order, so
    _flags builds each chain as its quotient simplex, by appends unless a
    key spans two sd1 dimensions; a quotient simplex met by several chains
    is kept once by SimplicialComplex.  Returns the quotient and the list
    of its vertex keys, keys[q] being the key of quotient vertex q.  Raises
    if the identification degenerates a simplex, the telltale of an
    insufficiently subdivided action.

    Only chains ending at a representative are mapped.  The caller picks
    exactly one representative from each orbit of a simplicial group action
    on k1 under which keys are invariant.  Then a chain c and its image g.c
    have the same quotient tuple and the same degeneracy, and every orbit of
    chains holds a chain ending at a representative (move its last element
    there), so the representatives' chains give exactly the quotient of all
    chains.
    """
    qid_by_key: dict = {}
    labels = {}
    ends = set()
    for s in chain.from_iterable(k1.simplices):
        key, is_representative = label_fn(s)
        labels[s] = qid_by_key.setdefault(key, len(qid_by_key))
        if is_representative:
            ends.add(s)
    return _complex_of_chains(k1, labels, ends, len(qid_by_key)), list(qid_by_key)


def quotient_complex(k: SimplicialComplex, generators) -> SimplicialComplex:
    """Quotient of a complex by a finite simplicial group action.

    The action is given by vertex permutations (generators suffice); it is
    validated to be simplicial, closed into the full group, and applied after
    two barycentric subdivisions, so the result computes the homology of the
    topological quotient.
    """
    group = _close_group(k.vertex_count, generators)
    _check_simplicial(k, group)
    ids, origin = _subdivision_data(k)
    # lift the action from vertices of k to simplices of k (= vertices of k1)
    lifted = [[ids[tuple(sorted(perm[v] for v in s))] for s in origin] for perm in group]

    def label_fn(s):
        key = min(tuple(sorted(table[v] for v in s)) for table in lifted)
        return key, key == s

    cx, _ = _identify_after_two_subdivisions(barycentric_subdivision(k), label_fn)
    return cx


def _build_exp_with_boundary(k: int, n: int):
    """Subset-space complex and the key of each of its vertices, keys[q]
    being the sorted point set of quotient vertex q (see
    relative_quotient_homology for the stratum of short keys).

    A vertex of the second subdivision is keyed by the underlying set of its
    barycentre's coordinates, which merges coordinate permutations and
    collapses repeated entries onto smaller subsets in one stroke.  The key
    is invariant under permuting coordinates, so only chains ending at the
    sd1 simplex whose barycentre is sorted are mapped: barycentres of
    distinct simplices are distinct, so each orbit has exactly one.  That
    needs the torus triangulation to be symmetric, which is checked, not
    assumed.

    Only a fundamental domain is subdivided: L, the closure of the torus
    simplices whose barycentre is sorted.  An sd1 simplex is a flag of torus
    simplices, and its barycentre lies in the relative interior of the flag's
    last simplex sigma.  There coordinate i is g_i + f_i (scaled), g the
    grid cube's corner and f_i in [0, 1) depending only on the step of
    sigma's staircase at which coordinate i first increments, so every
    point of that interior has the same order type.  Hence an sd1 simplex
    has a sorted barycentre exactly when its sigma does; every face of such
    a representative is a flag inside the closure of sigma, which lies in L.
    So sd1(L) holds every chain that is mapped, and each key is met there
    (an orbit's representative is in sd1(L)); quotient vertices are numbered
    in first-seen order over sd1(L).
    """
    k0 = build_torus_complex(k, n)
    _check_simplicial(k0, coordinate_permutation_action(k, n))
    # means of at most k + 1 points, taken twice, divide exactly
    scale = lcm(*range(1, k + 2)) ** 2
    period = n * scale
    coords0 = [tuple(x * scale for x in _grid_point(i, k, n)) for i in range(k0.vertex_count)]
    bcs = {s: _barycenter(s, coords0, period) for s in chain.from_iterable(k0.simplices)}
    domain = {f for s, bc in bcs.items() if list(bc) == sorted(bc)
              for f in chain(_proper_faces(s), [s])}
    ids = {s: i for i, s in enumerate(s for s in bcs if s in domain)}
    k1 = _complex_of_chains(k0, ids, domain, len(ids))
    coords1 = [bcs[s] for s in ids]

    def label_fn(s):
        bc = _barycenter(s, coords1, period)
        return tuple(sorted(set(bc))), list(bc) == sorted(bc)

    return _identify_after_two_subdivisions(k1, label_fn)


def build_exp_complex(k: int, n: int) -> SimplicialComplex:
    """Simplicial model of the space of subsets of at most k circle points.

    Tuples of the k-torus are identified exactly when they have the same
    underlying set; this refines the coordinate-permutation quotient by also
    collapsing repeated coordinates onto smaller subsets, which is what the
    subset space requires.
    """
    return _build_exp_with_boundary(k, n)[0]


# ---------------------------------------------------------------------------
# integer chain complexes and Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianInvariants:
    """Finitely generated abelian group: free rank and torsion coefficients
    in divisibility order (each > 1)."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class HomologyResult:
    """Integer homology per dimension."""

    groups: tuple[AbelianInvariants, ...]

    @property
    def betti(self) -> list[int]:
        return [g.rank for g in self.groups]

    @property
    def torsion(self) -> list[tuple[int, ...]]:
        return [g.torsion for g in self.groups]

    def __str__(self):
        return "; ".join(f"H_{d} = {g}" for d, g in enumerate(self.groups))


class SparseIntMatrix:
    """Integer matrix in column-major sparse form: column c is the tuple
    rows[c] of its distinct rows and the tuple vals[c] of their nonzero
    values, in matching positions; a zero column is two empty tuples.
    Tuples are never modified, so columns and matrices may share them."""

    def __init__(self, nrows: int, ncols: int, rows=None, vals=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[tuple] = [()] * ncols if rows is None else rows
        self.vals: list[tuple] = [()] * ncols if vals is None else vals
        if not len(self.rows) == len(self.vals) == ncols:
            raise ValueError(f"need row and value tuples for each of {ncols} columns")

    @classmethod
    def from_dense(cls, dense):
        cols = list(zip(*dense))
        rows = [tuple(r for r, v in enumerate(col) if v) for col in cols]
        vals = [tuple(int(col[r]) for r in rs) for col, rs in zip(cols, rows)]
        return cls(len(dense), len(cols), rows, vals)

    def nnz(self) -> int:
        return sum(map(len, self.rows))


def dense_smith_normal_form(rows):
    """Diagonal invariants d1 | d2 | ... of an integer matrix given as a
    dense list of rows, by the textbook routine: nonzero, in divisibility
    order, exact.  The input is copied, not modified."""
    a = [list(map(int, row)) for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    diag = []
    t = 0
    while True:
        pivot = None
        best = None
        for r in range(t, m):
            row = a[r]
            for c in range(t, n):
                x = abs(row[c])
                if x and (best is None or x < best):
                    best, pivot = x, (r, c)
                    if x == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            moved = False
            for r in range(t + 1, m):
                if a[r][t]:
                    q = a[r][t] // p
                    a[r] = [x - q * y for x, y in zip(a[r], a[t])]
                    if a[r][t]:
                        a[t], a[r] = a[r], a[t]
                        moved = True
                        break
            if moved:
                continue
            for c in range(t + 1, n):
                if a[t][c]:
                    q = a[t][c] // p
                    for row in a:
                        row[c] -= q * row[t]
                    if a[t][c]:
                        swap_cols(t, c)
                        moved = True
                        break
            if not moved:
                break
        diag.append(a[t][t])
        t += 1

    # restore the divisibility chain d1 | d2 | ...: diag(x, y) is equivalent
    # to diag(gcd, lcm), and one pass over the pairs leaves each d_i dividing
    # every later entry
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def _working_column(rows, vals):
    """A column to reduce: a dict row -> value and a max-heap of its rows,
    negated."""
    heap = [-r for r in rows]
    heapify(heap)
    return dict(zip(rows, vals)), heap


def _subtract(col: dict, v: int, pivot: tuple, heap: list) -> None:
    """Clear the entry v of col at the lowest row of pivot, a triple (rows,
    vals, unit) with unit = +-1 at that row: col -= v * unit * pivot, since
    unit * unit = 1.  Entries that cancel are dropped; a row the column
    gains is pushed on heap, its max-heap of negated rows."""
    rows, vals, unit = pivot
    q = v * unit
    for r, w in zip(rows, vals):
        x = col.get(r)
        if x is None:
            col[r] = -q * w
            heappush(heap, -r)
        else:
            x -= q * w
            if x:
                col[r] = x
            else:
                del col[r]


def smith_normal_form(m: SparseIntMatrix, clearing=None):
    """Diagonal invariants d1 | d2 | ... of a SparseIntMatrix, by column
    reduction on the lowest row index, pivoting on units only.

    Columns are reduced in index order: while a column's lowest row holds
    the pivot of an earlier column, that column is subtracted.  A column
    left with a +-1 there becomes the pivot of its lowest row; one left with
    another value goes to a residual list.  The pivot block is unimodular,
    so each pivot contributes an invariant 1 once the residual columns are
    cleared off every pivot row; the residual rows x columns, the only place
    torsion can appear, finish in the dense routine.  The input is not
    modified: its row and value tuples are only read.

    A pivot is a triple (rows, vals, unit) of two tuples and its +-1 at the
    lowest row; an entry v there is cleared by subtracting v * unit times
    the pivot, so no negated copy is made.  A column whose lowest row is
    free and holds +-1 becomes a pivot on the input's own tuples, with no
    copy.  Only a column that meets a pivot, or is left for the residual
    pass, is copied into a working dict with a max-heap of its rows beside
    it; a reduced column that becomes a pivot is stored back as two tuples.
    Rows are pushed when the column gains them and never removed, so the
    lowest row is the heap's top once tops that have cancelled are popped.
    A column that takes many steps to reduce then costs a heap operation
    per changed entry, not a scan of the whole column per step.

    clearing, a bytearray, is for the boundaries of a chain complex (see
    ChainComplexZ.homology): on entry it has one byte per column, nonzero
    for a column to skip; on return it is resized in place to one byte per
    row, nonzero at the rows of this reduction's unit pivots.
    """
    if clearing is None:
        skip = bytes(m.ncols)
    elif len(clearing) != m.ncols:
        raise ValueError(f"clearing mask has {len(clearing)} bytes for {m.ncols} columns")
    else:
        skip = clearing
    pivots: dict[int, tuple] = {}  # lowest row -> (rows, vals, unit)
    residual = []
    for rows, vals, skipped in zip(m.rows, m.vals, skip):
        if skipped or not rows:
            continue
        low = max(rows)
        if low in pivots:
            col, heap = _working_column(rows, vals)
            while heap:
                low = -heap[0]
                v = col.get(low)
                if v is None:
                    heappop(heap)
                    continue
                pivot = pivots.get(low)
                if pivot is None:
                    break
                _subtract(col, v, pivot, heap)
            if not col:
                continue
            rows, vals = tuple(col), tuple(col.values())
        else:
            v = vals[rows.index(low)]
        if v == 1 or v == -1:
            pivots[low] = (rows, vals, v)
        else:
            residual.append((rows, vals))
    # a row may have gained its pivot after a residual column was swept past
    # it; clear the highest pivot row first, since subtracting a pivot column
    # can only add entries at smaller row indices than its own, so a row
    # popped here is never gained again
    cleared = []
    for rows, vals in residual:
        col, heap = _working_column(rows, vals)
        while heap:
            r = -heappop(heap)
            v = col.get(r)
            if v is not None and r in pivots:
                _subtract(col, v, pivots[r], heap)
        cleared.append(col)
    if clearing is not None:
        clearing[:] = bytes(m.nrows)
        for r in pivots:
            clearing[r] = 1
    rows = sorted({r for col in cleared for r in col})
    index = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(cleared) for _ in rows]
    for j, col in enumerate(cleared):
        for r, v in col.items():
            dense[index[r]][j] = v
    return [1] * len(pivots) + dense_smith_normal_form(dense)


def _signs(n: int) -> tuple:
    """The values (+1, -1, +1, ...) of a simplicial boundary column with n rows."""
    return tuple(-1 if i % 2 else 1 for i in range(n))


def _composite_column_is_zero(lrows, lvals, rows, vals) -> bool:
    """Whether the matrix with column tuples lrows, lvals maps the column
    (rows, vals) to zero, summed exactly in a dict."""
    acc: dict[int, int] = {}
    for k, w in zip(rows, vals):
        for r, v in zip(lrows[k], lvals[k]):
            acc[r] = acc.get(r, 0) + v * w
    return not any(acc.values())


class ChainComplexZ:
    """Integer chain complex: ranks per degree and boundary matrices."""

    def __init__(self, dims: list[int], boundaries: list[SparseIntMatrix]):
        # boundaries[d] is the map C_{d+1} -> C_d, so len(boundaries) = top dim
        self.dims = list(dims)
        self.boundaries = boundaries
        if len(boundaries) != max(len(dims) - 1, 0):
            raise ValueError("need one boundary matrix per positive degree")
        for d, b in enumerate(boundaries):
            if b.nrows != dims[d] or b.ncols != dims[d + 1]:
                raise ValueError(f"boundary {d + 1} has shape {b.nrows}x{b.ncols}")

    def check_boundary_squared(self) -> bool:
        """Whether every composite low * high of two boundaries is zero.

        Most columns are proved zero by the face identity.  In the d-th
        composite a standard column of high has d + 2 rows with values
        (+1, -1, +1, ...), and each low column it names has d + 1 rows with
        values (+1, -1, ...).  The composite column is then the sum of the
        terms (i, j): row j of the column's i-th low column, with sign
        (-1)**(i + j).  For j < i the term (j, i - 1) has the opposite sign,
        and (i, j) -> (j, i - 1) maps {j < i} one-to-one onto {j >= i}; so
        if row j of low column i equals row i - 1 of low column j for every
        j < i, all terms cancel in pairs.  A simplicial boundary passes,
        since both rows are the simplex less its vertices j and i.  Each
        pair (j, i) is tested for all standard columns at once, on lists of
        rows taken by itemgetter.

        Every other column (non-standard values, a low column with a row
        cut out or a non-unit entry, a pair of rows that differ) is summed
        exactly by _composite_column_is_zero, and the first nonzero one ends
        the check.  No product matrix is built."""
        for d, (low, high) in enumerate(zip(self.boundaries, self.boundaries[1:]), 1):
            lrows, lvals, hrows, hvals = low.rows, low.vals, high.rows, high.vals
            nonstandard = set(compress(count(), map(ne, lvals, repeat(_signs(d + 1)))))
            standard = map(eq, hvals, repeat(_signs(d + 2)))
            if nonstandard:
                standard = map(and_, standard, map(nonstandard.isdisjoint, hrows))
            standard = bytes(standard)
            cols = list(compress(hrows, standard))
            # facets[i][c]: the rows of the i-th low column of standard column c
            facets = [list(map(lrows.__getitem__, map(itemgetter(i), cols))) for i in range(d + 2)]
            unproved = set(compress(count(), map(not_, standard)))
            for j, i in combinations(range(d + 2), 2):
                left = list(map(itemgetter(j), facets[i]))
                right = list(map(itemgetter(i - 1), facets[j]))
                if left != right:
                    unproved.update(compress(compress(count(), standard), map(ne, left, right)))
            for c in sorted(unproved):
                if not _composite_column_is_zero(lrows, lvals, hrows[c], hvals[c]):
                    return False
        return True

    def homology(self) -> HomologyResult:
        """Integer homology from the Smith invariants of every boundary.

        After the d o d check the boundaries are reduced top-down with
        clearing (Chen-Kerber): each reduction skips the columns that are
        unit pivot rows of the boundary one degree up.  Over the integers
        that keeps the invariants.  Say the reduction of the upper boundary
        left a column z with lowest row r and z_r = +-1.  z is an integer
        combination of the upper boundary's columns, so the lower boundary
        maps it to 0, and z has nothing below row r; so column r of the
        lower boundary is an integer combination of columns left of it.
        Subtracting those combinations from the cleared columns is one upper
        unitriangular, hence unimodular, column operation, and it leaves the
        cleared columns zero, so dropping them changes neither rank nor
        torsion.  A non-unit lowest entry proves only that a multiple of the
        column is a combination, so those columns are never cleared, and
        torsion still comes from the dense pass.
        """
        if not self.check_boundary_squared():
            raise ValueError("boundary of boundary is nonzero")
        top = len(self.dims) - 1
        invs = [None] * top
        clearing = bytearray(self.dims[top] if self.dims else 0)  # the top skips nothing
        for d in reversed(range(top)):
            invs[d] = smith_normal_form(self.boundaries[d], clearing)
        groups = []
        for d in range(top + 1):
            rank_in = len(invs[d]) if d < top else 0  # rank of d_{d+1}
            rank_out = len(invs[d - 1]) if d > 0 else 0  # rank of d_d
            betti = self.dims[d] - rank_out - rank_in
            torsion = tuple(x for x in invs[d] if x > 1) if d < top else ()
            groups.append(AbelianInvariants(betti, torsion))
        return HomologyResult(tuple(groups))


def chain_complex(k: SimplicialComplex) -> ChainComplexZ:
    """Simplicial chain complex with the orientation from sorted vertices."""
    return relative_chain_complex(k, ())


def homology(k: SimplicialComplex) -> HomologyResult:
    """Integer homology of a simplicial complex via Smith normal form."""
    return chain_complex(k).homology()


def relative_chain_complex(k: SimplicialComplex, sub_simplices) -> ChainComplexZ:
    """Chain complex of the pair (k, subcomplex): the quotient of chains.

    sub_simplices lists, per dimension, the simplices spanning the
    subcomplex; its chains are struck from the bases and from the boundary
    images.  Each column's rows are read off k's face table, and the columns
    of a dimension share one tuple of signs; only a column that holds a
    struck row gets tuples of its own, with that row cut out.
    """
    sub = [set(map(tuple, s)) for s in sub_simplices]
    sub += [set()] * (k.dim + 1 - len(sub))
    basis = []  # basis[d][j]: basis index of the j-th d-simplex, None if struck
    for ss, struck in zip(k.simplices, sub):
        if struck:
            keep = count()
            basis.append([None if s in struck else next(keep) for s in ss])
        else:  # a list, not a range: every column then shares one int per row
            basis.append(list(range(len(ss))))
    dims = [len(b) - b.count(None) for b in basis]
    boundaries = []
    for d in range(1, k.dim + 1):
        rows = zip(*[map(basis[d - 1].__getitem__, k.faces[d])] * (d + 1))
        if dims[d] < len(basis[d]):  # the struck columns go
            rows = compress(rows, map(is_not, basis[d], repeat(None)))
        rows = list(rows)
        vals = [_signs(d + 1)] * len(rows)
        if dims[d - 1] < len(basis[d - 1]):  # and the struck rows
            for j in compress(count(), map(contains, rows, repeat(None))):
                r, v = rows[j], vals[j]
                while None in r:
                    i = r.index(None)
                    r, v = r[:i] + r[i + 1:], v[:i] + v[i + 1:]
                rows[j], vals[j] = r, v
        boundaries.append(SparseIntMatrix(dims[d - 1], dims[d], rows, vals))
    return ChainComplexZ(dims, boundaries)


def _with_base_point(rel: HomologyResult) -> HomologyResult:
    """Homology of a quotient space from the relative homology of the pair:
    the reduced groups agree, and the base point restores one free rank in
    dimension zero."""
    g0 = rel.groups[0]
    return HomologyResult((AbelianInvariants(g0.rank + 1, g0.torsion),) + rel.groups[1:])


def relative_quotient_homology(n: int) -> HomologyResult:
    """Homology of the subset space with its pair stratum collapsed to a
    point (k = 3).

    The pair stratum is the full subcomplex on the quotient vertices whose
    key has fewer than 3 points, that is the quotient simplices over a chain
    whose elements' barycentres share a diagonal x_i = x_j.  An sd1
    simplex's barycentre lies in the relative interior of its last torus
    simplex sigma (see _build_exp_with_boundary), and each staircase simplex
    lies on one side of every diagonal, so that point is on a diagonal iff
    sigma is.  Along a chain of sd1 simplices each sigma is a face of the
    last one's, so the diagonals holding the barycentres only shrink along
    the chain, and those common to the whole chain are the last element's.
    Hence a quotient simplex is degenerate iff every vertex key is short.
    """
    cx, keys = _build_exp_with_boundary(3, n)
    marked = cx.induced({q for q, key in enumerate(keys) if len(key) < 3})
    chains = relative_chain_complex(cx, marked)
    del cx, keys, marked  # the reduction holds only the chain complex
    return _with_base_point(chains.homology())


def collapsed_cell_complex(cells_per_dim, dense_boundaries, collapsed_dims) -> HomologyResult:
    """Homology of a CW complex with a skeleton collapsed to a point.

    cells_per_dim counts the cells, dense_boundaries[d] is the matrix of the
    boundary map from (d+1)-cells to d-cells, and collapsed_dims names the
    dimensions whose cells form the collapsed subcomplex.
    """
    keep = [d not in collapsed_dims for d in range(len(cells_per_dim))]
    dims = [cells_per_dim[d] if keep[d] else 0 for d in range(len(cells_per_dim))]
    boundaries = [
        SparseIntMatrix.from_dense(dense) if keep[d] and keep[d + 1]
        else SparseIntMatrix(dims[d], dims[d + 1])
        for d, dense in enumerate(dense_boundaries)
    ]
    return _with_base_point(ChainComplexZ(dims, boundaries).homology())


def rp3_collapse_oracle() -> HomologyResult:
    """Independent target table for relative_quotient_homology: projective
    3-space has one cell per dimension with boundary multiplications
    0, 2, 0; collapsing its 1-skeleton gives the comparison space."""
    return collapsed_cell_complex(
        cells_per_dim=[1, 1, 1, 1],
        dense_boundaries=[[[0]], [[2]], [[0]]],
        collapsed_dims={0, 1},
    )
