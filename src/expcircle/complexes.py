"""Simplicial models of subset spaces of the circle and integer homology.

The k-fold torus carries the permutation-symmetric staircase triangulation,
so both the coordinate-permutation action and the finer identification of
tuples with equal underlying sets act simplicially.  Quotients are taken
after two barycentric subdivisions, the standard regularity margin that makes
the identified complex compute the homology of the identified space.  The
identifier also returns each quotient vertex's key, so a stratum is the full
subcomplex on the vertices whose keys satisfy a predicate.  The second
subdivision is enumerated chain by chain and each chain is mapped straight
to its quotient simplex: the flag memo holds no chain of a top simplex, and
the second subdivision is never validated or sorted as a whole.
Only chains ending at one chosen sd1 simplex per orbit of the group action
are mapped.  Keys are invariant under the group, so a chain and its images
land on the same quotient simplex, and each orbit of chains has a member
ending at a chosen simplex.  For the subset spaces that is a sixth of the
top chains at k = 3 (the symmetric group acts freely on top simplices); it
rests on the torus triangulation being symmetric under coordinate
permutations, which the build checks before relying on it.  Torus
coordinates are integers scaled by lcm(1..k+1)**2, so the barycentres of
barycentres that key the identification are exact without fractions.

Homology is computed over the integers through Smith normal form with exact
(arbitrary precision) arithmetic.  Each boundary matrix is assembled in one
pass, a column dict per simplex.  After the d o d check the boundaries are
reduced top-down, the highest first, by the column reduction of persistent
homology: each column is reduced on its lowest row index, read off a
max-heap of the column's rows, and the unit pivots are consumed.  Clearing
(Chen-Kerber) skips every column of a boundary that is a unit pivot row of
the boundary one degree up, since that column is an integer combination of
the others (see ChainComplexZ.homology).  A dense textbook pass finishes the
small remainder of non-unit columns, the only place torsion can appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations
from math import gcd, lcm


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Finite simplicial complex: vertices 0..n-1 and sorted vertex tuples
    per dimension, closed under taking faces."""

    def __init__(self, vertex_count: int, simplices_by_dim):
        self.vertex_count = vertex_count
        self.simplices = [sorted(set(map(tuple, s))) for s in simplices_by_dim]
        while self.simplices and not self.simplices[-1]:
            self.simplices.pop()
        self._validate()

    def _validate(self):
        if not self.simplices or len(self.simplices[0]) != self.vertex_count:
            raise ValueError("dimension 0 must list every vertex exactly once")
        have = [set(s) for s in self.simplices]
        for d in range(1, len(self.simplices)):
            for s in self.simplices[d]:
                if len(set(s)) != d + 1:
                    raise ValueError(f"degenerate simplex {s} in dimension {d}")
                if list(s) != sorted(s):
                    raise ValueError(f"unsorted simplex {s}")
                for f in combinations(s, d):
                    if f not in have[d - 1]:
                        raise ValueError(f"missing face {f} of {s}")

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


def circle_complex(n: int) -> SimplicialComplex:
    """The n-gon triangulation of a circle."""
    if n < 3:
        raise ValueError("polygon needs n >= 3")
    return SimplicialComplex.from_maximal([(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# text interchange format
# ---------------------------------------------------------------------------

def complex_to_text(k: SimplicialComplex) -> str:
    """One simplex per line: dimension then sorted vertex ids."""
    lines = [f"# simplicial complex, counts {k.counts()}"]
    for d, ss in enumerate(k.simplices):
        for s in ss:
            lines.append(f"{d} " + " ".join(map(str, s)))
    return "\n".join(lines) + "\n"


def complex_from_text(text: str) -> SimplicialComplex:
    by_dim: dict[int, set] = {}
    vertex_count = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        d = int(parts[0])
        verts = tuple(int(v) for v in parts[1:])
        if len(verts) != d + 1:
            raise ValueError(f"dimension {d} simplex with {len(verts)} vertices: {raw!r}")
        by_dim.setdefault(d, set()).add(tuple(sorted(verts)))
        vertex_count = max(vertex_count, max(verts) + 1)
    if not by_dim:
        raise ValueError("no simplices in input")
    dim = max(by_dim)
    return SimplicialComplex(vertex_count, [sorted(by_dim.get(d, ())) for d in range(dim + 1)])


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


def _flags(k: SimplicialComplex, ids, ends=None):
    """Every chain of the face poset, as an id tuple; a chain of length L is
    an (L-1)-simplex of the subdivision.  Ids increase along every chain
    because they are assigned in dimension order.  Only chains ending below
    the top dimension are memoised: a top simplex is no one's face.

    If ends is given, only chains whose last element s has ends[ids[s]] true
    are yielded; the memo stays complete, since any simplex can be a face of
    a wanted one, but a top simplex that is not wanted builds no chains."""
    memo: dict[tuple, list] = {}
    top = k.dim
    for d, ss in enumerate(k.simplices):
        for s in ss:
            sid = ids[s]
            wanted = ends is None or ends[sid]
            if d == top and not wanted:
                continue
            cs = [(sid,)]
            for f in _proper_faces(s):
                for c in memo[f]:
                    cs.append(c + (sid,))
            if d < top:
                memo[s] = cs
            if wanted:
                yield from cs


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision (combinatorial flags construction)."""
    ids, origin = _subdivision_data(k)
    out = [[] for _ in range(k.dim + 1)]
    for c in _flags(k, ids):
        out[len(c) - 1].append(c)
    return SimplicialComplex(len(origin), out)


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


def _check_simplicial(k: SimplicialComplex, perm) -> None:
    for d in range(1, k.dim + 1):
        have = set(k.simplices[d])
        for s in k.simplices[d]:
            img = tuple(sorted(perm[v] for v in s))
            if len(set(img)) != d + 1 or img not in have:
                raise ValueError("action does not carry simplices to simplices")


def _identify_after_two_subdivisions(k1: SimplicialComplex, label_fn):
    """Subdivide k1 once more, identifying vertices on the fly.

    k1 is the first subdivision; its simplices are the vertices of the
    second.  label_fn maps an sd1 simplex to (key, is_representative), and
    equal keys become one quotient vertex.  Returns the quotient and the list
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
    ids, origin = _subdivision_data(k1)
    qid_by_key: dict = {}
    qid_of_vertex = []
    ends = []
    for s in origin:
        key, is_representative = label_fn(s)
        qid_of_vertex.append(qid_by_key.setdefault(key, len(qid_by_key)))
        ends.append(is_representative)

    out = [set() for _ in range(k1.dim + 1)]
    for c in _flags(k1, ids, ends):
        q = tuple(sorted(qid_of_vertex[v] for v in c))
        if len(set(q)) != len(q):
            raise ValueError(
                "identification degenerates a simplex; the action is not "
                "regular even after two subdivisions"
            )
        out[len(q) - 1].add(q)
    cx = SimplicialComplex(len(qid_by_key), out)
    return cx, list(qid_by_key)


def quotient_complex(k: SimplicialComplex, generators) -> SimplicialComplex:
    """Quotient of a complex by a finite simplicial group action.

    The action is given by vertex permutations (generators suffice); it is
    validated to be simplicial, closed into the full group, and applied after
    two barycentric subdivisions, so the result computes the homology of the
    topological quotient.
    """
    group = _close_group(k.vertex_count, generators)
    for perm in group:
        _check_simplicial(k, perm)
    ids, origin = _subdivision_data(k)
    # lift the action from vertices of k to simplices of k (= vertices of k1)
    lifted = [[ids[tuple(sorted(perm[v] for v in s))] for s in origin] for perm in group]

    def label_fn(s):
        key = min(tuple(sorted(table[v] for v in s)) for table in lifted)
        return key, key == s

    cx, _ = _identify_after_two_subdivisions(barycentric_subdivision(k), label_fn)
    return cx


def _build_exp_with_boundary(k: int, n: int):
    """Subset-space complex plus the subcomplex of degenerate tuples
    (the image of the smaller subset space inside it), per dimension.

    A vertex of the second subdivision is keyed by the underlying set of its
    barycentre's coordinates, which merges coordinate permutations and
    collapses repeated entries onto smaller subsets in one stroke.  The key
    is invariant under permuting coordinates, so only chains ending at the
    sd1 simplex whose barycentre is sorted are mapped: barycentres of
    distinct simplices are distinct, so each orbit has exactly one.  That
    needs the torus triangulation to be symmetric, which is checked, not
    assumed.

    The degenerate subcomplex is the full subcomplex on the quotient
    vertices whose key has fewer than k points, that is the quotient
    simplices over a chain whose elements' barycentres share a diagonal
    x_i = x_j.  An sd1 simplex is a flag of torus simplices, and its
    barycentre lies in the relative interior of the flag's top torus simplex
    sigma; each staircase simplex lies on one side of every diagonal, so
    that point is on a diagonal iff sigma is.  Along a chain of sd1 simplices
    each top simplex is a face of the last one's, so the diagonals holding
    the barycentres only shrink along the chain, and those common to the
    whole chain are the last element's.  Hence a quotient simplex is
    degenerate iff every vertex key is short.
    """
    k0 = build_torus_complex(k, n)
    for g in coordinate_permutation_action(k, n):
        _check_simplicial(k0, g)
    # means of at most k + 1 points, taken twice, divide exactly
    scale = lcm(*range(1, k + 2)) ** 2
    period = n * scale
    coords0 = [tuple(x * scale for x in _grid_point(i, k, n)) for i in range(k0.vertex_count)]
    _, origin0 = _subdivision_data(k0)
    coords1 = [_barycenter(s, coords0, period) for s in origin0]

    def label_fn(s):
        bc = _barycenter(s, coords1, period)
        return tuple(sorted(set(bc))), list(bc) == sorted(bc)

    cx, keys = _identify_after_two_subdivisions(barycentric_subdivision(k0), label_fn)
    return cx, cx.induced({q for q, key in enumerate(keys) if len(key) < k})


def build_exp_complex(k: int, n: int) -> SimplicialComplex:
    """Simplicial model of the space of subsets of at most k circle points.

    Tuples of the k-torus are identified exactly when they have the same
    underlying set; this refines the coordinate-permutation quotient by also
    collapsing repeated coordinates onto smaller subsets, which is what the
    subset space requires.
    """
    cx, _ = _build_exp_with_boundary(k, n)
    return cx


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
    """Integer matrix in column-major sparse form: cols[c] maps row -> value."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.cols: dict[int, dict[int, int]] = {}

    @classmethod
    def from_dense(cls, dense):
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        m = cls(nrows, ncols)
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                m.set(r, c, int(v))
        return m

    def set(self, r, c, v):
        if v:
            self.cols.setdefault(c, {})[r] = v

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols.values())

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = SparseIntMatrix(self.nrows, other.ncols)
        for c, ocol in other.cols.items():
            acc: dict[int, int] = {}
            for k, w in ocol.items():
                col = self.cols.get(k)
                if col:
                    for r, v in col.items():
                        acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                out.cols[c] = {r: v for r, v in acc.items() if v}
        return out


def _dense_snf(a):
    """Textbook Smith normal form on a dense list-of-lists of python ints:
    the diagonal invariants, nonzero and in divisibility order."""
    a = [list(map(int, row)) for row in a]
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


def smith_normal_form(matrix, clearing=None):
    """Diagonal invariants d1 | d2 | ... of an integer matrix.

    A SparseIntMatrix goes through the sparse column reduction, a dense list
    of rows through the textbook routine.  Arithmetic is exact throughout.
    clearing, a set, is for the sparse reduction of a chain complex's
    boundaries (see ChainComplexZ.homology): on entry it names columns to
    skip, on return it holds the rows of this reduction's unit pivots.
    """
    if isinstance(matrix, SparseIntMatrix):
        return _sparse_snf_invariants(matrix, clearing)
    if clearing is not None:
        raise ValueError("columns are cleared only from a SparseIntMatrix")
    return _dense_snf(matrix)


def _subtract(col: dict, q: int, pivot: dict, heap: list) -> None:
    """col -= q * pivot, dropping entries that cancel; a row the column
    gains is pushed on heap, its max-heap of negated rows."""
    for r, w in pivot.items():
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


def _sparse_snf_invariants(m: SparseIntMatrix, clearing=None):
    """Column reduction on the lowest row index, pivoting on units only.

    Columns are reduced in index order: while a column's lowest row holds
    the pivot of an earlier column, that column is subtracted.  A column
    left with a +-1 there becomes the pivot of its lowest row; one left with
    another value goes to a residual list.  The pivot block is unimodular,
    so each pivot contributes an invariant 1 once the residual columns are
    cleared off every pivot row; the residual rows x columns, the only place
    torsion can appear, finish in the dense routine.  The input is not
    modified.

    The working column is a dict with a max-heap of its rows beside it.
    Rows are pushed when the column gains them and never removed, so the
    lowest row is the heap's top once tops that have cancelled are popped.
    A column that takes many steps to reduce then costs a heap operation
    per changed entry, not a scan of the whole column per step.

    Columns in clearing are skipped; if clearing is given it is replaced by
    the rows of the unit pivots on return.
    """
    skip = clearing or ()
    pivots: dict[int, dict[int, int]] = {}  # lowest row -> column with +1 there
    residual = []
    for c in sorted(m.cols):
        if c in skip:
            continue
        col = dict(m.cols[c])
        heap = [-r for r in col]
        heapify(heap)
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
        if v == 1:
            pivots[low] = col
        elif v == -1:
            pivots[low] = {r: -x for r, x in col.items()}
        else:
            residual.append((col, heap))
    # a row may have gained its pivot after a residual column was swept past
    # it; clear the highest pivot row first, since subtracting a pivot column
    # can only add entries at smaller row indices than its own, so a row
    # popped here is never gained again
    for col, heap in residual:
        while heap:
            r = -heappop(heap)
            v = col.get(r)
            if v is not None and r in pivots:
                _subtract(col, v, pivots[r], heap)
    if clearing is not None:
        clearing.clear()
        clearing.update(pivots)
    rows = sorted({r for col, _ in residual for r in col})
    index = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(residual) for _ in rows]
    for j, (col, _) in enumerate(residual):
        for r, v in col.items():
            dense[index[r]][j] = v
    return [1] * len(pivots) + _dense_snf(dense)


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
        for low, high in zip(self.boundaries, self.boundaries[1:]):
            if low.mul(high).nnz() != 0:
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
        clearing: set[int] = set()
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
    images.
    """
    sub = [set(map(tuple, s)) for s in sub_simplices]
    sub += [set()] * (k.dim + 1 - len(sub))
    bases = []
    for d in range(k.dim + 1):
        bases.append([s for s in k.simplices[d] if s not in sub[d]])
    dims = [len(b) for b in bases]
    boundaries = []
    for d in range(1, k.dim + 1):
        row_of = {s: i for i, s in enumerate(bases[d - 1])}.get
        faces = [(i, -1 if i % 2 else 1) for i in range(d + 1)]
        mat = SparseIntMatrix(dims[d - 1], dims[d])
        for col, s in enumerate(bases[d]):
            entries = {}
            for i, sign in faces:
                row = row_of(s[:i] + s[i + 1:])
                if row is not None:
                    entries[row] = sign
            if entries:
                mat.cols[col] = entries
        boundaries.append(mat)
    return ChainComplexZ(dims, boundaries)


def _with_base_point(rel: HomologyResult) -> HomologyResult:
    """Homology of a quotient space from the relative homology of the pair:
    the reduced groups agree, and the base point restores one free rank in
    dimension zero."""
    g0 = rel.groups[0]
    return HomologyResult((AbelianInvariants(g0.rank + 1, g0.torsion),) + rel.groups[1:])


def relative_quotient_homology(n: int) -> HomologyResult:
    """Homology of the subset space with its pair stratum collapsed to a
    point (k = 3)."""
    cx, marked = _build_exp_with_boundary(3, n)
    return _with_base_point(relative_chain_complex(cx, marked).homology())


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
