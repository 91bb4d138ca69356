"""Simplicial models of subset spaces of the circle and integer homology.

The k-fold torus carries the staircase triangulation, which is symmetric
under permuting coordinates, and one build takes its quotients.  It
identifies after two barycentric subdivisions, the standard regularity
margin that makes the identified complex compute the homology of the
identified space: each vertex of the second subdivision is keyed by a
function of its barycentre, and equal keys become one quotient vertex.  Two
keys are used.  The underlying set of the coordinates gives the subset space
exp_k, tuples identified when they have the same underlying set; the sorted
coordinates give the symmetric product SP^k, tuples identified up to
permutation only.  The build returns an ExpModel, the quotient with each
vertex's key, and a stratum is its full(pred), the full subcomplex on the
vertices whose keys satisfy pred.  Both keys are invariant under permuting
coordinates, so only a fundamental domain is subdivided, the closure of the
torus simplices with a sorted barycentre, and only chains ending at the one
sd1 simplex of each orbit with a sorted barycentre are mapped: a sixth of
the top chains at k = 3.  That rests on the torus triangulation being
symmetric, which the build checks before relying on it.  The second
subdivision is enumerated chain by chain, each chain built directly as its
quotient simplex, a sorted tuple of quotient vertex ids extended by appends,
since the ids are numbered in dimension order and rise along every chain (a
build where one does not is refused); it is never validated or sorted as a
whole, and the flag memo holds only chains ending at a proper face of a
mapped sd1 simplex.  Torus coordinates are integers scaled by lcm(1..k+1)**2,
so the barycentres of barycentres that key the identification are exact
without fractions.  Each stage lets go of its inputs once the next holds what
it needs: the torus and its barycentre, domain and id dicts once the first
subdivision exists; the first subdivision, its labels, the representatives
and the key dict once the quotient chains are collected, only the key list
surviving; and each dimension's list of chains once it is deduplicated.  So
the build peaks while the quotient's top simplices are validated, holding
only the quotient's simplices, the lookup dict of its triangles and its face
tables.

A complex keeps each dimension in the order its simplices were first given,
so nothing the build makes is sorted.  The pair stratum L of exp_3 is coned
off (K u CL, homotopy equivalent to K/L), so relative homology is the
absolute homology of an ordinary complex and chain_complex is the one
simplicial chain-complex constructor.

Homology is computed over the integers through Smith normal form with exact
(arbitrary precision) arithmetic.  A SparseIntMatrix is compressed sparse
column: flat tables of row indices and values and the offsets of each
column in them.  Validation looks up every facet of a complex once, by
position: facet i of all the d-simplices is picked from their vertex
tuples by one itemgetter, looked up in a dict of the dimension below and
written into the strided slice i::d + 1 of the face table, the d + 1 facet
rows of each d-simplex in turn.  Only a failed check or lookup sends the
dimension through the per-simplex loop that names the faulty simplex.  The
face table is already the flat row table of the boundary, so every
boundary shares it, beside offsets that step by d + 1 and the signs
repeated; the chain complex copies nothing of the complex and checks none
of its rows again, each being the index of a facet that was found.  The
d o d check proves a composite of two face tables zero from the face
identity (facet j of facet i is facet i - 1 of facet j, for j < i): for
each pair of positions it compares two tuples, each made by one itemgetter
call over a whole position of every column, and sums exactly only the
columns whose rows differ, or every column when a boundary is laid out
otherwise; no product matrix is built.  Then the boundaries are reduced
top-down, the highest first, by smith_normal_form, the column reduction of
persistent homology: each column is reduced on its lowest row index, and
the unit pivots are consumed.  A column becomes a tuple of rows and a tuple
of values only when the reduction reaches it; a pivot is that pair of
tuples with its +-1 at the lowest row, and only a column that meets a pivot
is copied into a dict, whose lowest row is read as max(col): the working
columns are short, so a scan costs less than keeping their rows sorted.
Clearing (Chen-Kerber) skips every column of a boundary that is a unit
pivot row of the boundary one degree up, since that column is an integer
combination of the others (see ChainComplexZ.homology); those rows pass
from one reduction to the next as a mask of one byte per row.  The small
remainder of non-unit columns, the only place torsion can appear, is
finished by dense_smith_normal_form, the textbook routine on a dense list
of rows (here one row per column), which the small matrices of the group
layer call directly.  The results, AbelianInvariants per dimension in a
HomologyResult, are immutable tuples.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import accumulate, chain, combinations, compress, count, islice, permutations, repeat
from math import gcd, lcm
from operator import gt, itemgetter, lt, ne, not_


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Finite simplicial complex: vertices 0..n-1 and sorted vertex tuples
    per dimension, closed under taking faces.

    Each dimension lists its simplices once, in the order first given;
    dimension 0 is the vertices in order.  A dict drops each dimension's
    repeats, and another, mapping the dimension below to its indices, looks
    up the facets; each is dropped once used, so at most one dimension's
    dict is alive.  faces[d] is the face table of dimension d: for each
    d-simplex in order, the indices in simplices[d - 1] of its d + 1
    facets, facet i dropping vertex i (faces[0] is empty)."""

    def __init__(self, vertex_count: int, simplices_by_dim):
        self.vertex_count = vertex_count
        self.simplices = []
        self.faces = []
        # map holds no given list once it has deduplicated it, so one that
        # nothing else holds is dropped before its dimension is validated
        for d, ss in enumerate(map(_distinct, simplices_by_dim)):
            if d:  # the lookup dict of the dimension below lives for this call only
                self.faces.append(_face_table(d, ss, dict(zip(self.simplices[-1], count()))))
            else:
                ss.sort()
                if ss != [(v,) for v in range(vertex_count)]:
                    raise ValueError("dimension 0 must list every vertex exactly once")
                self.faces.append(array("I"))
            self.simplices.append(ss)
        while self.simplices and not self.simplices[-1]:
            self.simplices.pop()
            self.faces.pop()
        if not self.simplices:
            raise ValueError("dimension 0 must list every vertex exactly once")

    @classmethod
    def from_maximal(cls, simplices):
        """Close a set of simplices (any dimensions) under taking faces;
        each dimension is listed in sorted order."""
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

    def cone(self, vertices) -> SimplicialComplex:
        """K u CL, this complex K with a cone on L, the full subcomplex on a
        vertex set; the apex is a new last vertex.

        K's simplices and face rows keep their indices, and the cone on each
        simplex of L is appended to the dimension above it.  Facet i of the
        cone on s is the cone on facet i of s, and its last facet is s; each
        is looked up through K's face table, and one outside L is refused.
        K itself is not validated again."""
        keep = set(vertices)
        apex = self.vertex_count
        simplices = [ss[:] for ss in self.simplices] + [[]]
        faces = [table[:] for table in self.faces] + [array("I")]
        simplices[0].append((apex,))
        cone_of = {}  # index of a simplex of L, one dimension down -> its cone's
        for d, (ss, rows) in enumerate(zip(self.simplices, self.faces)):
            base = [j for j, s in enumerate(ss) if keep.issuperset(s)]
            if not base:  # L is closed under faces: nothing above either
                break
            table = faces[d + 1]
            for j in base:
                # the cone on a vertex has the apex for its facet 0
                fs = [cone_of.get(f) for f in rows[j * (d + 1):(j + 1) * (d + 1)]] if d else [apex]
                if None in fs:
                    s, i = ss[j], fs.index(None)
                    raise ValueError(f"missing face {s[:i] + s[i + 1:] + (apex,)} of {s + (apex,)}")
                table.extend(fs)
                table.append(j)
            cone_of = dict(zip(base, count(len(simplices[d + 1]))))
            simplices[d + 1] += [ss[j] + (apex,) for j in base]
        while not simplices[-1]:
            simplices.pop()
            faces.pop()
        # K is valid and every new facet was found, so nothing is validated
        out = object.__new__(SimplicialComplex)
        out.vertex_count, out.simplices, out.faces = apex + 1, simplices, faces
        return out

    def __repr__(self):
        return f"SimplicialComplex(counts={self.counts()})"


def _distinct(ss) -> list:
    """The simplices ss as tuples, each once, in the order first given."""
    return list(dict.fromkeys(map(tuple, ss)))


def _face_table(d: int, ss: list, row: dict) -> array:
    """The face table of the d-simplices ss, row mapping each (d-1)-simplex
    to its index; refuses a simplex that is degenerate, unsorted or missing
    a facet."""
    # facet i of every simplex at once, picked by position and written into
    # its strided slice.  The keys of row are strictly increasing (checked
    # one dimension down), so a simplex of d + 1 >= 3 vertices whose facets
    # are all found is too, its first and last facets overlapping; an edge's
    # two vertices are compared.  On any failure the per-simplex loop names
    # it
    w = d + 1
    table = array("I", [0]) * (w * len(ss))
    try:
        if set(map(len, ss)) <= {w} and (
                d > 1 or all(map(lt, map(itemgetter(0), ss), map(itemgetter(1), ss)))):
            for i in range(w):
                drop = itemgetter(*range(i), *range(i + 1, w))
                facets = map(drop, ss) if d > 1 else zip(map(drop, ss))
                table[i::w] = array("I", map(row.__getitem__, facets))
            return table
    except KeyError:
        pass
    for s in ss:
        if len(s) != w or len(set(s)) != w:
            raise ValueError(f"degenerate simplex {s} in dimension {d}")
        if list(s) != sorted(s):
            raise ValueError(f"unsorted simplex {s}")
        for f in combinations(s, d):
            if f not in row:
                raise ValueError(f"missing face {f} of {s}")
    raise AssertionError("a face table refused by position passed the per-simplex checks")


# ---------------------------------------------------------------------------
# barycentric subdivision
# ---------------------------------------------------------------------------

def _proper_faces(s):
    for k in range(1, len(s)):
        yield from combinations(s, k)


def _flags(k: SimplicialComplex, labels, ends):
    """Every chain of the face poset ending at a simplex in ends, as the
    tuple of its elements' labels (labels maps a simplex of k to an int); a
    chain of length L is an (L-1)-simplex of the subdivision.  Every element
    of such a chain is a face of its last one, so chains are memoised only
    on the proper faces of ends: a top simplex is no one's face.

    Labels must rise along the face poset, as labels assigned in dimension
    order do, so every chain is sorted and is extended by an append.  Each
    proper face's label is checked below its coface's once; an equal label
    means an identification degenerates a simplex."""
    need = {f for s in ends for f in _proper_faces(s)}
    memo: dict[tuple, list] = {}
    for s in chain.from_iterable(k.simplices):
        wanted = s in ends
        if wanted or s in need:
            label = labels[s]
            tail = (label,)
            cs = [tail]
            for f in _proper_faces(s):
                if labels[f] >= label:
                    if labels[f] == label:
                        raise ValueError("identification degenerates a simplex; the action is "
                                         "not regular even after two subdivisions")
                    raise ValueError(f"label {labels[f]} of {f} is not below label {label} of {s}")
                cs += [c + tail for c in memo[f]]
            if s in need:
                memo[s] = cs
            if wanted:
                yield from cs


def _complex_of_chains(chains, dim: int, vertex_count: int):
    """The complex on vertices 0..vertex_count-1 of the chains, a _flags
    generator over a complex of dimension dim.  The generator is exhausted
    before the complex is validated, which frees its complex, labels and
    ends once no caller holds them, and each dimension's list of chains is
    popped as it is handed over, so it goes once it is deduplicated."""
    out = [[] for _ in range(dim + 1)]
    for c in chains:
        out[len(c) - 1].append(c)
    return SimplicialComplex(vertex_count, map(out.pop, repeat(0, len(out))))


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
# the torus and its quotients
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
    _flags builds each chain as its quotient simplex by appends; a quotient
    simplex met by several chains is kept once by SimplicialComplex.
    Returns the quotient and the list of its vertex keys, keys[q] being the
    key of quotient vertex q.  Raises if the identification degenerates a
    simplex, the telltale of an insufficiently subdivided action, and if a
    face's quotient id is not below its coface's (see _flags).

    Only chains ending at a representative are mapped.  The torus build
    (_build_exp_with_boundary) marks exactly one representative in each
    orbit of the coordinate permutations acting on k1, the sd1 simplex with
    a sorted barycentre, and both its keys are invariant under them.  Then
    a chain c and its image g.c have the same quotient tuple and the same
    degeneracy, and every orbit of chains holds a chain ending at a
    representative (move its last element there), so the representatives'
    chains give exactly the quotient of all chains.
    """
    qid_by_key: dict = {}
    labels = {}
    ends = set()
    for s in chain.from_iterable(k1.simplices):
        key, is_representative = label_fn(s)
        labels[s] = qid_by_key.setdefault(key, len(qid_by_key))
        if is_representative:
            ends.add(s)
    keys = list(qid_by_key)
    chains, dim = _flags(k1, labels, ends), k1.dim
    # the generator is left the only holder of k1, the labels and the ends,
    # so they go once the chains are collected and before the quotient is
    # validated (the caller hands k1 over without keeping it)
    del qid_by_key, k1, labels, ends
    return _complex_of_chains(chains, dim, len(keys)), keys


def _underlying_set(point) -> tuple:
    """The subset-space key of a torus point: its distinct coordinates,
    sorted."""
    return tuple(sorted(set(point)))


class ExpModel(namedtuple("ExpModel", ("complex", "keys", "period"))):
    """A quotient of the k-torus as _build_exp_with_boundary makes it: the
    complex, and keys[q] the key of its vertex q, integers modulo period
    where x stands for the angle 2 pi x / period.  A stratum is the full
    subcomplex on the vertices whose keys satisfy a predicate.  The build is
    the only maker, so nothing is checked."""

    __slots__ = ()

    def vertices(self, pred) -> list[int]:
        """The ids of the vertices whose keys satisfy pred, in order."""
        return [q for q, key in enumerate(self.keys) if pred(key)]

    def full(self, pred):
        """(complex, ids): the full subcomplex on vertices(pred), renumbered
        in order, so its simplices stay sorted, and ids[i] the model's id of
        its vertex i.

        Every facet of a kept simplex is kept, so its face rows are the
        model's, renumbered through the simplices kept one dimension down,
        as cone reuses K's rows: no facet is looked up again.  A row naming
        a simplex outside the stratum is refused, as cone refuses it."""
        ids = self.vertices(pred)
        if not ids:
            raise ValueError("empty stratum: no vertex key satisfies the predicate")
        cx, keep = self.complex, set(ids)
        # below[j] is 1 when simplex j one dimension down is kept, and new[j]
        # the count kept before it, so its new index; a vertex's index is its id
        below = bytes(map(keep.__contains__, range(cx.vertex_count)))
        new = renumber = list(accumulate(below, initial=0))
        simplices, faces = [[(v,) for v in range(len(ids))]], [array("I")]
        for d in range(1, cx.dim + 1):
            ss, rows, w = cx.simplices[d], cx.faces[d], d + 1
            kept = bytes(map(keep.issuperset, ss))
            table = array("I", [0]) * (w * kept.count(1))
            if not table:  # nothing above an empty dimension either
                break
            for i in range(w):
                row = list(compress(rows[i::w], kept))
                if not all(map(below.__getitem__, row)):
                    s = next(s for s, f in zip(compress(ss, kept), row) if not below[f])
                    raise ValueError(f"missing face {s[:i] + s[i + 1:]} of {s}")
                table[i::w] = array("I", map(new.__getitem__, row))
            simplices.append([tuple(map(renumber.__getitem__, s)) for s in compress(ss, kept)])
            faces.append(table)
            below, new = kept, list(accumulate(kept, initial=0))
        out = object.__new__(SimplicialComplex)
        out.vertex_count, out.simplices, out.faces = len(ids), simplices, faces
        return out, ids


def _build_exp_with_boundary(k: int, n: int, key=_underlying_set) -> ExpModel:
    """Quotient of the k-torus on an n-grid, as an ExpModel with the key of
    each of its vertices.

    A vertex of the second subdivision is keyed by key(barycentre), a
    function of its integer torus coordinates.  The default, the underlying
    set, merges coordinate permutations and collapses repeated entries onto
    smaller subsets in one stroke: the subset space, whose keys[q] is the
    sorted point set (see relative_quotient_homology for the stratum of
    short keys).  The sorted coordinates merge permutations only: the
    symmetric product (build_symmetric_product).  Either key is invariant
    under permuting coordinates, so only chains ending at the sd1 simplex
    whose barycentre is sorted are mapped: barycentres of distinct simplices
    are distinct, so each orbit has exactly one.  That needs the torus
    triangulation to be symmetric, which is checked, not assumed.

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
    coords1 = [bcs[s] for s in ids]
    # the torus stage goes once the first subdivision exists.  That is held
    # in a list only to be popped into the call below: CPython 3.11 and later
    # move a call's arguments into the callee's frame, so nothing here keeps
    # the first subdivision once its chains are mapped
    first = [_complex_of_chains(_flags(k0, ids, domain), k0.dim, len(ids))]
    del k0, coords0, bcs, domain, ids

    def label_fn(s):
        bc = _barycenter(s, coords1, period)
        return key(bc), list(bc) == sorted(bc)

    return ExpModel(*_identify_after_two_subdivisions(first.pop(), label_fn), period)


def build_exp_model(k: int, n: int) -> ExpModel:
    """Simplicial model of the space of subsets of at most k circle points.

    Tuples of the k-torus are identified exactly when they have the same
    underlying set; this refines the coordinate-permutation quotient by also
    collapsing repeated coordinates onto smaller subsets, which is what the
    subset space requires.  keys[q] is vertex q's point set.
    """
    return _build_exp_with_boundary(k, n)


def build_symmetric_product(k: int, n: int) -> ExpModel:
    """Simplicial model of the symmetric product SP^k of the circle: tuples
    of the k-torus identified up to permuting coordinates, repeated entries
    kept apart from smaller subsets; keys[q] is vertex q's sorted tuple."""
    return _build_exp_with_boundary(k, n, lambda bc: tuple(sorted(bc)))


# ---------------------------------------------------------------------------
# integer chain complexes and Smith normal form
# ---------------------------------------------------------------------------

class AbelianInvariants(namedtuple("AbelianInvariants", ("rank", "torsion"), defaults=((),))):
    """Finitely generated abelian group: free rank and torsion coefficients
    in divisibility order (each > 1)."""

    __slots__ = ()

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


class HomologyResult(namedtuple("HomologyResult", ("groups",))):
    """Integer homology per dimension: a tuple of AbelianInvariants."""

    __slots__ = ()

    @property
    def betti(self) -> list[int]:
        return [g.rank for g in self.groups]

    @property
    def torsion(self) -> list[tuple[int, ...]]:
        return [g.torsion for g in self.groups]

    def __str__(self):
        return "; ".join(f"H_{d} = {g}" for d, g in enumerate(self.groups))


class SparseIntMatrix:
    """Integer matrix in compressed sparse column form.  The entries of
    column c sit at positions indptr[c] to indptr[c + 1] of two flat
    sequences: indices holds their distinct rows, and values their nonzero
    values, which read back as exact ints; a zero column is an empty span.
    indptr may be a range, for columns that all have its step as width.  The
    tables are only read, never modified, so matrices may share them: a
    boundary of a complex is the complex's face table itself (see
    chain_complex).

    The constructor refuses a row index outside 0..nrows-1, offsets that do
    not rise from 0 to len(indices) over ncols + 1 entries, and values of
    another length than indices.  Left out, the tables give a zero matrix."""

    def __init__(self, nrows: int, ncols: int, indices=(), indptr=None, values=()):
        if indptr is None:
            indptr = [0] * (ncols + 1)
        unsigned = isinstance(indices, array) and indices.typecode in "BHILQ"
        if indices and (max(indices) >= nrows or not unsigned and min(indices) < 0):
            raise ValueError(f"row index outside 0..{nrows - 1}")
        rising = indptr.step > 0 if isinstance(indptr, range) else \
            not any(map(gt, indptr, islice(indptr, 1, None)))
        if not (len(indptr) == ncols + 1 and indptr[0] == 0 and indptr[-1] == len(indices) and rising):
            raise ValueError(f"need {ncols + 1} offsets rising from 0 to {len(indices)}")
        if len(values) != len(indices):
            raise ValueError(f"{len(values)} values for {len(indices)} row indices")
        self.nrows, self.ncols = nrows, ncols
        self.indices, self.indptr, self.values = indices, indptr, values

    @classmethod
    def from_dense(cls, dense):
        indices, indptr, values = array("I"), [0], []
        for col in zip(*dense):
            rows = [r for r, v in enumerate(col) if v]
            indices.extend(rows)
            values += [int(col[r]) for r in rows]
            indptr.append(len(indices))
        return cls(len(dense), len(indptr) - 1, indices, indptr, values)

    def columns(self, keep):
        """The columns flagged in keep, one flag per column, each as a tuple
        of its rows and a tuple of its values, in order; a column left out
        never becomes a tuple.

        Columns of one width w are zipped from strided slices of the flat
        tables, indices[i::w]; when the values repeat one pattern, every
        column shares one values tuple."""
        indices, values, indptr = self.indices, self.values, self.indptr
        if not isinstance(indptr, range):
            spans = compress(map(slice, indptr, islice(indptr, 1, None)), keep)
            return ((tuple(indices[span]), tuple(values[span])) for span in spans)
        w = indptr.step
        rows = zip(*[compress(indices[i::w], keep) for i in range(w)])
        if values[:w] * self.ncols == values:
            return zip(rows, repeat(tuple(values[:w])))
        return zip(rows, zip(*[compress(values[i::w], keep) for i in range(w)]))

    def nnz(self) -> int:
        return len(self.indices)


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


def _subtract(col: dict, v: int, pivot: tuple) -> None:
    """Clear the entry v of col at the lowest row of pivot, a triple (rows,
    vals, unit) with unit = +-1 at that row: col -= v * unit * pivot, since
    unit * unit = 1.  Entries that cancel are dropped; a row the column
    gains is appended to the dict."""
    rows, vals, unit = pivot
    q = v * unit
    for r, w in zip(rows, vals):
        x = col.get(r)
        if x is None:
            col[r] = -q * w
        else:
            x -= q * w
            if x:
                col[r] = x
            else:
                del col[r]


def smith_normal_form(m: SparseIntMatrix, clearing):
    """Diagonal invariants d1 | d2 | ... of a SparseIntMatrix, by column
    reduction on the lowest row index, pivoting on units only.

    Columns are reduced in index order: while a column's lowest row holds
    the pivot of an earlier column, that column is subtracted.  A column
    left with a +-1 there becomes the pivot of its lowest row; one left with
    another value goes to a residual list.  The pivot block is unimodular,
    so each pivot contributes an invariant 1 once the residual columns are
    cleared off every pivot row; the residual columns, the only place
    torsion can appear, finish in the dense routine as its rows (a matrix
    and its transpose have the same invariants).  The input is not
    modified: its flat tables are only read.

    A column becomes a tuple of rows and a tuple of values only when the
    reduction reaches it, so a skipped column is never copied.  A pivot is
    a triple (rows, vals, unit) of two tuples and its +-1 at the lowest row;
    an entry v there is cleared by subtracting v * unit times the pivot, so
    no negated copy is made.  A column whose lowest row is free and holds
    +-1 becomes a pivot on those tuples as they are.  Only a column that
    meets a pivot, or is left for the residual pass, is copied into a
    working dict, and a reduced column that becomes a pivot is stored back
    as two tuples.  Its lowest row is max(col), a scan in C per step: a
    column that grows to L entries over S steps costs S * L scanned
    entries, but on the homology 3 boundaries a working column takes about
    two steps at a mean 2 to 12 entries (at most 2 952 at n = 6).

    clearing, a bytearray, is for the boundaries of a chain complex (see
    ChainComplexZ.homology): on entry it has one byte per column, nonzero
    for a column to skip; on return it is resized in place to one byte per
    row, nonzero at the rows of this reduction's unit pivots.
    """
    if len(clearing) != m.ncols:
        raise ValueError(f"clearing mask has {len(clearing)} bytes for {m.ncols} columns")
    pivots: dict[int, tuple] = {}  # lowest row -> (rows, vals, unit)
    residual = []
    for rows, vals in m.columns(bytes(map(not_, clearing))):
        if not rows:
            continue
        low = max(rows)
        if low in pivots:
            col = dict(zip(rows, vals))
            while low in pivots:
                _subtract(col, col[low], pivots[low])
                low = max(col, default=None)
            if not col:
                continue
            rows, vals = tuple(col), tuple(col.values())
            v = col[low]
        else:
            v = vals[rows.index(low)]
        if v == 1 or v == -1:
            pivots[low] = (rows, vals, v)
        else:
            residual.append((rows, vals))
    # a row may have gained its pivot after a residual column was swept past
    # it; clear the highest pivot row first, since subtracting a pivot column
    # can only add entries at smaller row indices than its own, so only the
    # rows below the one just cleared need looking at again
    cleared = []
    for rows, vals in residual:
        col = dict(zip(rows, vals))
        hit = [r for r in col if r in pivots]
        while hit:
            low = max(hit)
            _subtract(col, col[low], pivots[low])
            hit = [r for r in col if r < low and r in pivots]
        cleared.append(col)
    clearing[:] = bytes(m.nrows)
    for r in pivots:
        clearing[r] = 1
    rows = sorted({r for col in cleared for r in col})
    dense = [[col.get(r, 0) for r in rows] for col in cleared]
    return [1] * len(pivots) + dense_smith_normal_form(dense)


def _signs(n: int) -> tuple:
    """The values (+1, -1, +1, ...) of a simplicial boundary column with n rows."""
    return tuple(-1 if i % 2 else 1 for i in range(n))


def _composite_column_is_zero(low: SparseIntMatrix, rows, vals) -> bool:
    """Whether low maps the column with entries (rows, vals) to zero,
    summed exactly in a dict."""
    acc: dict[int, int] = {}
    for k, w in zip(rows, vals):
        span = slice(low.indptr[k], low.indptr[k + 1])
        for r, v in zip(low.indices[span], low.values[span]):
            acc[r] = acc.get(r, 0) + v * w
    return not any(acc.values())


def _face_rows(m: SparseIntMatrix, w: int):
    """The rows of m by position, rows[i][c] being row i of column c, when m
    is laid out as a face table: offsets stepping by w and the values
    (+1, -1, ...) in every column.  None for any other matrix."""
    if m.indptr != range(0, m.nnz() + 1, w):
        return None
    for i, sign in enumerate(_signs(w)):
        vs = m.values[i::w]
        if vs.count(sign) != len(vs):
            return None
    return [m.indices[i::w].tolist() for i in range(w)]


def _composite_is_zero(low, lrows, high, hrows) -> bool:
    """Whether low * high is zero, given each boundary's rows by position,
    or None for one that is not a face table (_face_rows); see
    ChainComplexZ.check_boundary_squared."""
    if lrows is None or hrows is None or high.ncols < 2:  # itemgetter needs two indices
        unproved = range(high.ncols)
    else:
        unproved = set()
        pick = [itemgetter(*rows) for rows in hrows]
        for j, i in combinations(range(len(hrows)), 2):
            left, right = pick[i](lrows[j]), pick[j](lrows[i - 1])
            if left != right:
                unproved.update(compress(count(), map(ne, left, right)))
        unproved = sorted(unproved)
    for c in unproved:
        span = slice(high.indptr[c], high.indptr[c + 1])
        if not _composite_column_is_zero(low, high.indices[span], high.values[span]):
            return False
    return True


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

        Each boundary is classified whole: it is a face table when its
        offsets step by its width and every column has the values
        (+1, -1, +1, ...) (see _face_rows).  In the d-th composite of two
        face tables every column of high has d + 2 rows, and each low
        column it names has d + 1.  The composite column is then the sum of
        the terms (i, j): row j of the column's i-th low column, with sign
        (-1)**(i + j).  For j < i the term (j, i - 1) has the opposite sign,
        and (i, j) -> (j, i - 1) maps {j < i} one-to-one onto {j >= i}; so
        if row j of low column i equals row i - 1 of low column j for every
        j < i, all terms cancel in pairs.  A simplicial boundary passes,
        since both rows are the simplex less its vertices j and i.  Each
        pair (j, i) is tested for all columns at once: an itemgetter of
        high's rows at one position picks the named low rows in one call,
        and two such tuples are compared.  Each boundary is sliced into its
        rows by position once, as the high side of one composite and the
        low side of the next.

        A column whose rows differ at some pair, every column of a
        composite with a side that is not a face table, and a high side of
        fewer than two columns, whose itemgetter would give no tuple, are
        summed exactly by _composite_column_is_zero, and the first nonzero
        one ends the check.  No product matrix is built."""
        below = None  # a boundary and its rows by position
        for w, high in enumerate(self.boundaries, 2):
            above = (high, _face_rows(high, w))
            if below is not None and not _composite_is_zero(*below, *above):
                return False
            below = above
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
    """Simplicial chain complex with the orientation from sorted vertices.

    Each boundary is k's face table itself, with offsets stepping by the
    simplex width and the signs repeated beside it, so nothing is copied.
    The SparseIntMatrix checks are not run: every row is the index of a
    facet found in the dict of dimension d - 1 (or, in a cone, one of K's
    rows or a cone's index), so it is in range, and the offsets and the
    signs are laid out here, d + 1 per column."""
    boundaries = []
    for d in range(1, k.dim + 1):
        b = object.__new__(SparseIntMatrix)
        b.nrows, b.ncols, b.indices = len(k.simplices[d - 1]), len(k.simplices[d]), k.faces[d]
        b.indptr, b.values = range(0, len(b.indices) + 1, d + 1), array("b", _signs(d + 1)) * b.ncols
        boundaries.append(b)
    return ChainComplexZ(k.counts(), boundaries)


# kept only because benchmarks/tracing.py wraps this name; pairs are coned off
relative_chain_complex = chain_complex


def homology(k: SimplicialComplex) -> HomologyResult:
    """Integer homology of a simplicial complex via Smith normal form."""
    return chain_complex(k).homology()


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

    The stratum L is coned off: K u CL is homotopy equivalent to K/L, since
    L is a subcomplex, so its absolute homology is the homology of the
    collapsed space.  The coned complex is an ordinary simplicial complex,
    whose boundaries are face tables, so its d o d check is proved entirely
    by the face identity.
    """
    model = _build_exp_with_boundary(3, n)
    # one complex at a time: the model goes once its cone is built, and the
    # cone once its chain complex is, so the reduction holds only the chains
    cx = model.complex.cone(model.vertices(lambda key: len(key) < 3))
    del model
    chains = chain_complex(cx)
    del cx
    return chains.homology()


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
