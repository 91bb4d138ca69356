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
coordinates, so only a fundamental domain L is subdivided, the closure of
the torus simplices with a sorted barycentre: a permutation carries every
chain of the torus's second subdivision to one of sd1(L).  That rests on the
torus triangulation being symmetric, which the build checks before relying
on it.  Both subdivisions are one routine, _subdivide, which numbers the
names of the new vertices, barycentres and then keys, and has _flags
enumerate the chains, each built directly as its packed simplex, extended
by a shift and an or, since the ids are numbered in dimension order and
rise along every chain (a build where one does not is refused); no
subdivision is sorted as a whole.  Torus coordinates are integers scaled by
lcm(1..k+1)**2, so the barycentres of barycentres that key the
identification are exact without fractions.  Each stage lets go of its
inputs once the next holds what it needs: the torus and its barycentres
once the chains of the first subdivision are collected, the first
subdivision and its labels once the quotient chains are, only the key list
surviving, and each dimension's array of chains once it is deduplicated.
So the build peaks while the quotient's top simplices are validated,
holding only its simplices, the lookup dict of its triangles and its face
tables.

A complex stores each simplex packed into one int, its sorted vertex ids in
fields of 8, 16 or 32 bits, the lowest id most significant, and each
dimension is an array('Q') of them: no Python object per simplex, and packed
simplices sort as their vertex tuples do.  One vertex of every simplex is a
strided memoryview of the array's bytes (_field), so the passes that read or
rebuild simplices, for facets, strata and relabelling, are strided slices in
C.  Each dimension is kept in the order its simplices were first given, so
nothing the build makes is sorted.  The pair stratum L of exp_3 is coned off
(K u CL, homotopy equivalent to K/L), so relative homology is the absolute
homology of an ordinary complex and chain_complex is the one simplicial
chain-complex constructor.  cone and ExpModel.full take a stratum by one
walk, SimplicialComplex._stratum.

Homology is computed over the integers through Smith normal form with exact
(arbitrary precision) arithmetic.  A SparseIntMatrix is compressed sparse
column: flat tables of row indices and values and the offsets of each column
in them.  Validation looks up every facet of a complex once, by position:
facet i of a chunk of d-simplices is copied field by field out of the packed
ints, looked up in a dict of the dimension below keyed by packed ints and
written into the strided slice i::d + 1 of the face table.  Only a failed
check or lookup sends the dimension through the per-simplex loop that names
the faulty simplex.  The face table is already the flat row table of the
boundary, so every boundary shares it, beside offsets that step by d + 1 and
the signs repeated; the chain complex copies nothing of the complex and
checks none of its rows again, each being the index of a facet that was
found.  The d o d check proves a composite of two face tables zero from the
face identity (facet j of facet i is facet i - 1 of facet j, for j < i),
comparing itemgetter tuples over chunks of DD_CHUNK_COLUMNS columns, and
sums exactly only the columns whose rows differ, or every column when a
boundary is laid out otherwise; no product matrix is built.  Then the
boundaries are reduced top-down, with clearing (Chen-Kerber), by
smith_normal_form, the column reduction of persistent homology on the
lowest row index with unit pivots.  A unit pivot taken from an unreduced
column is kept as its index and reread from the face table, as Ripser
recomputes a column (Bauer, J. Appl. Comput. Topol. 5, 2021); a reduced
pivot is appended to one flat column store, as Ripser and PHAT keep reduced
columns (Bauer-Kerber-Reininghaus-Wagner, J. Symb. Comput. 78, 2017).  The
small remainder of non-unit columns, the only place torsion can appear, is
finished by dense_smith_normal_form on a dense list of rows, which the small
matrices of the group layer call directly: its one rule splits off the least
entry once that clears its row and column.  The results, AbelianInvariants
per dimension in a HomologyResult, are immutable tuples.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from itertools import accumulate, chain, combinations, compress, count, islice, pairwise, permutations, repeat
from math import gcd, lcm
from operator import add, gt, itemgetter, lshift, lt, ne, not_, or_


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Finite simplicial complex: vertices 0..n-1 and the simplices of each
    dimension, closed under taking faces.

    A d-simplex is stored packed: its sorted vertex ids in d + 1 fields of
    bits bits each, the lowest id most significant (_pack), so packed
    simplices sort as their vertex tuples do.  bits is the byte width of
    the largest id, n - 1 (_bits); a dimension whose fields would pass 64 bits
    is refused.  simplices[d] is an array('Q') of the packed d-simplices,
    each once, in the order first given; dimension 0 is the vertices in
    order.  _tuples gives simplices back as vertex tuples.  A dict drops each
    dimension's repeats, and another, mapping the dimension below to its
    indices, looks up the facets; each is dropped once used, so at most one
    dimension's dict is alive.  faces[d] is the face table of dimension d:
    for each d-simplex in order, the indices in simplices[d - 1] of its
    d + 1 facets, facet i dropping vertex i (faces[0] is empty)."""

    def __init__(self, vertex_count: int, simplices_by_dim):
        """simplices_by_dim lists each dimension's packed simplices."""
        self.vertex_count, self.bits = vertex_count, _bits(vertex_count)
        self.simplices = []
        self.faces = []
        # map holds no given sequence once it has deduplicated it, so one
        # that nothing else holds is dropped before its dimension is
        # validated, and so is the dict once it is an array (enumerate would
        # keep it in the pair it reuses)
        for ss in map(dict.fromkeys, simplices_by_dim):
            d = len(self.simplices)
            if ss:
                _check_width(d + 1, self.bits)
            ss = array("Q", ss)
            if d:  # the lookup dict of the dimension below lives for this call only
                self.faces.append(_face_table(d, ss, self.bits, dict(zip(self.simplices[-1], count()))))
            else:
                if sorted(ss) != list(range(vertex_count)):
                    raise ValueError("dimension 0 must list every vertex exactly once")
                ss = array("Q", range(vertex_count))
                self.faces.append(array("I"))
            self.simplices.append(ss)
        while self.simplices and not self.simplices[-1]:
            self.simplices.pop()
            self.faces.pop()
        if not self.simplices:
            raise ValueError("dimension 0 must list every vertex exactly once")

    @classmethod
    def from_maximal(cls, simplices):
        """Close a set of simplices, given as vertex sequences of any
        dimensions, under taking faces; each dimension is listed in sorted
        order."""
        tops = [t for t in map(sorted, map(set, simplices)) if t]
        verts = sorted(set(chain.from_iterable(tops)))
        if not verts:
            raise ValueError("empty complex")
        if verts != list(range(len(verts))):
            raise ValueError("vertices must be 0..n-1 with no gaps")
        bits = _bits(len(verts))
        by_dim = [set() for _ in range(max(map(len, tops)))]
        _check_width(len(by_dim), bits)
        for t in tops:
            by_dim[len(t) - 1].add(_pack(t, bits))
        for d in reversed(range(1, len(by_dim))):  # each dimension adds its facets below
            ss = array("Q", by_dim[d])
            for i in range(d + 1):
                by_dim[d - 1].update(_facets(ss, d, i, bits))
        return cls(len(verts), map(sorted, by_dim))

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> list[int]:
        return [len(s) for s in self.simplices]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(s) for d, s in enumerate(self.simplices))

    def vertex_tuples(self):
        """Every simplex as its vertex tuple, in dimension order."""
        return chain.from_iterable(_tuples(ss, d + 1, self.bits) for d, ss in enumerate(self.simplices))

    @classmethod
    def _unchecked(cls, vertex_count: int, simplices: list, faces: list) -> SimplicialComplex:
        """The complex of packed simplices and face tables laid out as the
        constructor lays them out, in fields of _bits(vertex_count) bits,
        built from a valid complex (cone, ExpModel.full), so not validated."""
        out = object.__new__(cls)
        out.vertex_count, out.bits = vertex_count, _bits(vertex_count)
        out.simplices, out.faces = simplices, faces
        return out

    def _stratum(self, keep):
        """The full subcomplex L on the vertices in keep, one dimension at a
        time up to L's top: (at, rows), at the positions in this complex K of
        L's simplices, in order, and rows their face table renumbered into
        L's positions one dimension down (empty for the vertices).

        L is picked by passes in C over the packed vertex fields (_inside).
        Every facet of a simplex of L is in L, so no facet is looked up
        again: K's face rows are mapped through the positions kept one
        dimension down, and a row naming a simplex outside L is refused."""
        new = {}  # K's position of a simplex of L, one dimension down -> L's
        for d, (ss, table) in enumerate(zip(self.simplices, self.faces)):
            w = d + 1
            at = _inside(ss, w, self.bits, keep)
            if not at:  # L is closed under faces: nothing above either
                return
            rows = array("I", [0]) * (d and w * len(at))  # a vertex has no facet rows
            try:
                for i in range(d and w):
                    rows[i::w] = array("I", map(new.__getitem__, map(table[i::w].__getitem__, at)))
            except KeyError:
                s = next(s for s, j in zip(_tuples(array("Q", map(ss.__getitem__, at)), w, self.bits), at)
                         if table[j * w + i] not in new)
                raise ValueError(f"missing face {s[:i] + s[i + 1:]} of {s}") from None
            yield at, rows
            new = dict(zip(at, count()))

    def cone(self, vertices) -> SimplicialComplex:
        """K u CL, this complex K with a cone on L, the full subcomplex on a
        vertex set (_stratum); the apex is a new last vertex.

        K's simplices and face rows keep their indices, and the cone on each
        simplex of L is appended to the dimension above it; K's simplices
        are repacked only when the apex needs a wider field.  Facet i of the
        cone on s is the cone on facet i of s, L's row shifted past K's
        simplices, and its last facet is s.  K itself is not validated
        again."""
        apex = self.vertex_count
        bits = _bits(apex + 1)
        if bits == self.bits:
            simplices = [ss[:] for ss in self.simplices]
        else:  # every field widened
            _check_width(self.dim + 1, bits)
            simplices = [_relabel(ss, d + 1, self.bits, bits, range(apex))
                         for d, ss in enumerate(self.simplices)]
        simplices.append(array("Q"))
        faces = [table[:] for table in self.faces] + [array("I")]
        simplices[0].append(apex)
        for d, (at, rows) in enumerate(self._stratum(set(vertices))):
            w = d + 1
            _check_width(w + 1, bits)
            # the cone on L's j-th (d-1)-simplex is K's d-simplex len(K_d) + j;
            # the cone on a vertex has the apex, vertex len(K_0), for facet 0
            shift = len(self.simplices[d])
            table = array("I", [shift]) * ((w + 1) * len(at))
            for i in range(d and w):
                table[i::w + 1] = array("I", map(add, rows[i::w], repeat(shift)))
            table[w::w + 1] = at
            faces[w] += table
            simplices[w] += array("Q", map(or_, map(lshift, map(simplices[d].__getitem__, at),
                                                     repeat(bits)), repeat(apex)))
        if not simplices[-1]:  # L misses K's top dimension
            del simplices[-1], faces[-1]
        return SimplicialComplex._unchecked(apex + 1, simplices, faces)

    def __repr__(self):
        return f"SimplicialComplex(counts={self.counts()})"


def _bits(vertex_count: int) -> int:
    """The field width of one vertex id of a packed simplex on vertex_count
    vertices: 8, 16 or 32, the least byte width that holds the largest id,
    so that each field is one item of the packed array's bytes (_field)."""
    return 8 if vertex_count <= 1 << 8 else 16 if vertex_count <= 1 << 16 else 32


def _check_width(w: int, bits: int) -> None:
    """Refuse simplices of w vertices in fields of bits bits that pass 64 bits."""
    if w * bits > 64:
        raise ValueError(f"{w} vertex ids of {bits} bits pass the 64 bits of a packed simplex")


def _pack(vertices, bits: int) -> int:
    """The packed simplex of a vertex sequence, the first vertex most significant."""
    out = 0
    for v in vertices:
        out = out << bits | v
    return out


def _field(ss: array, w: int, bits: int, i: int) -> memoryview:
    """Vertex i of each packed simplex of w vertices in ss, an array('Q'), a
    writable strided view of its bytes as bits-bit items: item w - 1 - i from
    the low end of each int, which a big-endian machine stores last."""
    per = 64 // bits
    slot = w - 1 - i if sys.byteorder == "little" else per - w + i
    return memoryview(ss).cast("B").cast({8: "B", 16: "H", 32: "I"}[bits])[slot::per]


def _tuples(ss, w: int, bits: int):
    """The packed simplices of w vertices in ss, an array('Q'), as vertex tuples."""
    return zip(*[_field(ss, w, bits, i) for i in range(w)])


def _facets(ss, d: int, i: int, bits: int) -> array:
    """Facet i, dropping vertex i, of each packed d-simplex in ss, an
    array('Q'), packed into a fresh array: field j is a strided copy of
    field j of the simplices, or of field j + 1 from vertex i on."""
    out = array("Q", [0]) * len(ss)
    for j in range(d):
        _field(out, d, bits, j)[:] = _field(ss, d + 1, bits, j + (j >= i))
    return out


def _inside(ss: array, w: int, bits: int, keep: set) -> array:
    """The positions, in order, of the packed simplices of w vertices in ss
    whose vertices are all in keep.  Vertex i is read only at the positions
    whose later vertices are in, the last vertex first: it has the largest
    id, and few simplices end in a stratum numbered early (exp_3's pairs)."""
    at = array("I", compress(count(), map(keep.__contains__, _field(ss, w, bits, w - 1))))
    for i in reversed(range(w - 1)):
        at = array("I", compress(at, map(keep.__contains__, map(_field(ss, w, bits, i).__getitem__, at))))
    return at


def _relabel(ss, w: int, bits: int, new_bits: int, label) -> array:
    """The packed simplices of w vertices in ss, an array('Q'), each vertex v
    replaced by label[v], copied field by field into new_bits-bit fields."""
    out = array("Q", [0]) * len(ss)
    for i in range(w):
        field = _field(out, w, new_bits, i)
        field[:] = array(field.format, map(label.__getitem__, _field(ss, w, bits, i)))
    return out


# simplices whose facets _face_table cuts out at once
FACET_CHUNK_SIMPLICES = 512


def _face_table(d: int, ss: array, bits: int, row: dict) -> array:
    """The face table of the packed d-simplices ss, row mapping each packed
    (d-1)-simplex to its index; refuses a simplex that has bits above its
    d + 1 fields or is degenerate, unsorted or missing a facet."""
    # facet i of a chunk at once, written into its strided slice.  The keys
    # of row are strictly increasing (checked one dimension down), so a
    # simplex of d + 1 >= 3 vertices whose facets are all found is too; an
    # edge's two vertices are compared.  No field reads the bits above the
    # fields, so one check refuses them.  On any failure the per-simplex
    # loop names the simplex, those bits read as part of vertex 0
    w = d + 1
    table = array("I", [0]) * (w * len(ss))
    try:
        edges_sorted = d > 1 or all(map(lt, _field(ss, 2, bits, 0), _field(ss, 2, bits, 1)))
        if edges_sorted and not (ss and max(ss) >> w * bits):
            for start in range(0, len(ss), FACET_CHUNK_SIMPLICES):
                part = ss[start:start + FACET_CHUNK_SIMPLICES]
                for i in range(w):
                    facets = map(row.__getitem__, _facets(part, d, i, bits))
                    table[start * w + i:(start + len(part)) * w:w] = array("I", facets)
            return table
    except KeyError:
        pass
    for packed, s in zip(ss, _tuples(ss, w, bits)):
        s = (packed >> d * bits,) + s[1:]
        if len(set(s)) != w:
            raise ValueError(f"degenerate simplex {s} in dimension {d}")
        if list(s) != sorted(s):
            raise ValueError(f"unsorted simplex {s}")
        for f in combinations(s, d):
            if _pack(f, bits) not in row:
                raise ValueError(f"missing face {f} of {s}")
    raise AssertionError("a face table refused by position passed the per-simplex checks")


# ---------------------------------------------------------------------------
# barycentric subdivision
# ---------------------------------------------------------------------------

def _proper_faces(s):
    for k in range(1, len(s)):
        yield from combinations(s, k)


def _flags(k: SimplicialComplex, labels, ends, bits: int) -> list:
    """Every chain of the face poset ending at a simplex flagged in ends,
    packed as SimplicialComplex packs a simplex, the labels of its elements
    in fields of bits bits.  labels[g] and ends[g] belong to the g-th
    simplex of k in dimension order, labels ints below 2**bits, and ends
    must be closed under faces.  Returns one array('Q') per length, the
    chains of length L, (L-1)-simplices of the subdivision, at index L - 1
    in the order met, repeats kept.  Every element of such a chain is an
    end, so the chains of each end below the top dimension are memoised.

    The proper faces of every d-simplex are read from k's face tables, one
    array per set of kept vertex positions, in the order _proper_faces lists
    them, so no vertex tuple is made.  Labels must rise along the face
    poset, as labels assigned in dimension order do, so every chain is
    sorted and is extended by c << bits | label; the memo keeps each chain
    shifted already, so extending it is one or.  Each proper face's label is
    checked below its coface's; an equal label means an identification
    degenerates a simplex.  Every d-simplex lists its chains in one order,
    its own label and then each proper face's chains extended, so the
    chains of one length sit at the same positions for all of them: the
    ends' chains are kept end after end, one array per dimension, and split
    by length by strided slice assignment."""
    _check_width(k.dim + 1, bits)
    # facet[d][i][j]: the index of facet i of d-simplex j
    facet = [[table[i::d + 1] for i in range(d + 1)] for d, table in enumerate(k.faces)]
    faces = []  # faces[d]: per proper face position, (its dimension, its index in each d-simplex)
    for d, ss in enumerate(k.simplices):
        faces.append([])
        for kept in _proper_faces(range(d + 1)):
            e, at = d, range(len(ss))
            for i in reversed([i for i in range(d + 1) if i not in kept]):
                e, at = e - 1, array("I", map(facet[e][i].__getitem__, at))
            faces[d].append((e, at))
    del facet
    offsets = list(accumulate(k.counts(), initial=0))
    memo = [[None] * len(ss) for ss in k.simplices]  # chains << bits of the ends below the top
    met = []  # met[d]: the chains of the d-simplices of ends, end after end
    for d, by_position in enumerate(faces):
        lo, hi = offsets[d], offsets[d + 1]
        met.append(array("Q"))
        face_chains = zip(*[map(memo[e].__getitem__, at) for e, at in by_position]) if d else repeat(())
        for j, label, end, fs in zip(count(), labels[lo:hi], ends[lo:hi], face_chains):
            if end:
                if fs and max(map(itemgetter(0), fs)) >> bits >= label:
                    s = next(_tuples(k.simplices[d][j:j + 1], d + 1, k.bits))
                    f, lower = next((tuple(map(s.__getitem__, kept)), c[0] >> bits)
                                    for kept, c in zip(_proper_faces(range(d + 1)), fs)
                                    if c[0] >> bits >= label)
                    if lower == label:
                        raise ValueError("identification degenerates a simplex; the action is "
                                         "not regular even after two subdivisions")
                    raise ValueError(f"label {lower} of {f} is not below label {label} of {s}")
                cs = [label]
                cs += map(or_, chain.from_iterable(fs), repeat(label))
                if d < k.dim:
                    memo[d][j] = list(map(lshift, cs, repeat(bits)))
                met[d] += array("Q", cs)
    del faces, memo
    lengths = [[1]]  # lengths[d]: the length of each chain a d-simplex lists, in order
    for d in range(1, k.dim + 1):
        lengths.append([1] + [x + 1 for f in _proper_faces(range(d + 1)) for x in lengths[len(f) - 1]])
    out = [array("Q") for _ in lengths]
    for d, ls in enumerate(lengths):
        chains, met[d] = met[d], None
        for w in range(1, d + 2):
            at = [i for i, x in enumerate(ls) if x == w]
            split = array("Q", [0]) * (len(at) * (len(chains) // len(ls)))
            for j, i in enumerate(at):
                split[j::len(at)] = chains[i::len(ls)]
            out[w - 1] += split
    return out


def _subdivide(k: SimplicialComplex, names, ends) -> tuple:
    """The barycentric subdivision of the subcomplex of k flagged in ends,
    its vertices identified by name: (complex, names), names[q] the name of
    vertex q.  names and ends belong to the simplices of k in dimension
    order; names is read once, and ends must be closed under faces.  Equal
    names are one vertex, numbered in order of first sight, so _flags builds
    each chain as its packed simplex; a simplex met by several chains is
    kept once.  Raises if the identification degenerates a simplex, the
    telltale of an insufficiently subdivided action, or if a face's id is
    not below its coface's.  k and the labels go before the subdivision is
    validated, so a caller that hands k over keeps one complex at a time."""
    ids: dict = {}
    labels = array("I", [ids.setdefault(name, len(ids)) if end else 0 for name, end in zip(names, ends)])
    names = list(ids)
    chains = _flags(k, labels, ends, _bits(len(names)))
    del ids, k, labels, ends
    return SimplicialComplex(len(names), map(chains.pop, repeat(0, len(chains)))), names


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
            for s in _tuples(k.simplices[d], d + 1, k.bits):
                img = sorted(map(perm.__getitem__, s))
                if len(set(img)) != d + 1 or _pack(img, k.bits) not in have:
                    raise ValueError("action does not carry simplices to simplices")


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
        its vertex i.  It is the complex's stratum walk
        (SimplicialComplex._stratum), the kept simplices repacked."""
        ids = self.vertices(pred)
        if not ids:
            raise ValueError("empty stratum: no vertex key satisfies the predicate")
        cx, renumber = self.complex, dict(zip(ids, count()))
        kept, faces = zip(*cx._stratum(set(ids)))  # by dimension
        simplices = [_relabel(array("Q", map(ss.__getitem__, at)), d + 1, cx.bits, _bits(len(ids)), renumber)
                     for d, (ss, at) in enumerate(zip(cx.simplices, kept))]
        return SimplicialComplex._unchecked(len(ids), simplices, list(faces)), ids


def _build_exp_with_boundary(k: int, n: int, key=_underlying_set) -> ExpModel:
    """Quotient of the k-torus on an n-grid, as an ExpModel with the key of
    each of its vertices.

    A vertex of the second subdivision is keyed by key(barycentre), a
    function of its integer torus coordinates.  The default, the underlying
    set, merges coordinate permutations and collapses repeated entries onto
    smaller subsets in one stroke: the subset space, whose keys[q] is the
    sorted point set (see relative_quotient_homology for the stratum of
    short keys).  The sorted coordinates merge permutations only: the
    symmetric product (build_symmetric_product).  Both subdivisions are
    _subdivide: the first of a fundamental domain L, its vertices named by
    their barycentres, and the second of all of sd1(L), its vertices named
    by their keys.

    L is the closure of the torus simplices whose barycentre is sorted.  An
    sd1 simplex is a flag of torus simplices, and its barycentre lies in the
    relative interior of the flag's last simplex sigma.  There coordinate i
    is g_i + f_i (scaled), g the grid cube's corner and f_i in [0, 1)
    depending only on the step of sigma's staircase at which coordinate i
    first increments, so every point of that interior has the same order
    type, and some coordinate permutation p sorts it.  Then p.sigma lies in
    L, and so do its faces, so p carries every chain of the second
    subdivision ending at that sd1 simplex to a chain of sd1(L).  Both keys
    are invariant under p, so a chain and its image have the same quotient
    simplex and degeneracy, and the chains of sd1(L) give exactly the
    quotient of all chains.  That needs p to carry simplices to simplices,
    which is checked, not assumed.
    """
    # each complex is handed to _subdivide popped from stage, and the
    # quotient's ends are made in the call: CPython 3.11 and later move a
    # call's arguments into the callee's frame, so nothing here keeps them
    # once the chains are collected.  The keys are read lazily, before that
    stage = [build_torus_complex(k, n)]
    _check_simplicial(stage[0], coordinate_permutation_action(k, n))
    # means of at most k + 1 points, taken twice, divide exactly
    scale = lcm(*range(1, k + 2)) ** 2
    period = n * scale
    coords0 = [tuple(x * scale for x in _grid_point(i, k, n)) for i in range(stage[0].vertex_count)]
    simplices0 = list(stage[0].vertex_tuples())
    bcs = [_barycenter(s, coords0, period) for s in simplices0]
    domain = {f for s, bc in zip(simplices0, bcs) if list(bc) == sorted(bc)
              for f in chain(_proper_faces(s), [s])}
    ends = bytes(map(domain.__contains__, simplices0))
    del coords0, simplices0, domain
    sd1, coords1 = _subdivide(stage.pop(), bcs, ends)
    stage.append(sd1)
    keys = (key(_barycenter(s, coords1, period)) for s in sd1.vertex_tuples())
    size = sum(sd1.counts())
    del bcs, ends, sd1
    return ExpModel(*_subdivide(stage.pop(), keys, b"\1" * size), period)


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
        """The columns flagged in keep, one flag per column, each as its
        index, a tuple of its rows and a tuple of its values, in order; a
        column left out never becomes a tuple.

        Columns of one width w are zipped from strided slices of the flat
        tables, indices[i::w]; when the values repeat one pattern, every
        column shares one values tuple."""
        indices, values, indptr = self.indices, self.values, self.indptr
        at = compress(count(), keep)
        if not isinstance(indptr, range):
            spans = compress(map(slice, indptr, islice(indptr, 1, None)), keep)
            return ((c, tuple(indices[span]), tuple(values[span])) for c, span in zip(at, spans))
        w = indptr.step
        rows = zip(*[compress(indices[i::w], keep) for i in range(w)])
        if values[:w] * self.ncols == values:
            return zip(at, rows, repeat(tuple(values[:w])))
        return zip(at, rows, zip(*[compress(values[i::w], keep) for i in range(w)]))

    def nnz(self) -> int:
        return len(self.indices)


def dense_smith_normal_form(rows):
    """Diagonal invariants d1 | d2 | ... of an integer matrix given as a
    dense list of rows: nonzero, in divisibility order, exact.  The input is
    copied, not modified.

    One pivot rule: take the nonzero entry p least in size, and subtract
    from every other row, then every other column, its multiple of p's row
    or column.  Once p's row and column hold nothing else, |p| is recorded
    and they are deleted; otherwise a remainder smaller than |p| is left
    there and becomes the next pivot, so the loop ends."""
    a = [list(map(int, row)) for row in rows]
    diag = []
    while nonzero := [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]:
        _, i, j = min(nonzero)
        prow = a[i]
        p = prow[j]
        for r, row in enumerate(a):
            if r != i and row[j]:
                q = row[j] // p
                a[r] = [x - q * y for x, y in zip(row, prow)]
        for c, x in enumerate(prow):
            if c != j and x:
                q = x // p
                for row in a:
                    row[c] -= q * row[j]
        if prow.count(0) == len(prow) - 1 and [row[j] for row in a].count(0) == len(a) - 1:
            diag.append(abs(p))
            del a[i]
            for row in a:
                del row[j]

    # restore the divisibility chain d1 | d2 | ...: diag(x, y) is equivalent
    # to diag(gcd, lcm), and one pass over the pairs leaves each d_i dividing
    # every later entry
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


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
    reduction reaches it, so a skipped column is never copied.  pivot[row],
    an array of one int per row, reads -1 for no pivot, c >= 0 for column c
    of m, a pivot as it is (its lowest row was free and held +-1), and
    -2 - k for stored pivot k.  Column c is reread from m's tables when a
    column meets it (Ripser's recomputed columns), so a unit pivot costs
    four bytes.  Only a column that meets a pivot, or is left for the
    residual pass, is copied into a working dict, and a reduced column that
    becomes a pivot is appended to one column store: its rows to an
    array('I'), its values to a list, so they stay exact ints of any size,
    its end to an offsets array and its +-1 at the lowest row to an
    array('b'), about twelve bytes per entry.  clear reads either kind of
    pivot and clears the entry v of a column at the pivot's lowest row by
    subtracting v * unit times the pivot, so no negated copy is made; an
    entry is popped and put back only if nonzero.  A working column's lowest
    row is max(col), a scan in C per step: a column that grows to L entries
    over S steps costs S * L scanned entries, but on the homology 3
    boundaries a working column takes about two steps at a mean 2 to 12
    entries (at most 2 952 at n = 6).

    clearing, a bytearray, is for the boundaries of a chain complex (see
    ChainComplexZ.homology): on entry it has one byte per column, nonzero
    for a column to skip; on return it is resized in place to one byte per
    row, nonzero at the rows of this reduction's unit pivots.
    """
    if len(clearing) != m.ncols:
        raise ValueError(f"clearing mask has {len(clearing)} bytes for {m.ncols} columns")
    indices, indptr, values = m.indices, m.indptr, m.values
    pivot = array("i", [-1]) * m.nrows  # row -> -1 none, c >= 0 column c of m, -2 - k stored pivot k
    # the column store: pivot k's rows and values at ends[k]:ends[k + 1], its +-1 in units[k]
    stored_rows, stored_vals, ends, units = array("I"), [], array("I", [0]), array("b")

    def clear(col, low, p):
        """Subtract from col its entry at row low times the pivot of that
        row, unreduced or stored, and times the pivot's unit there."""
        if p >= 0:
            a, b = indptr[p], indptr[p + 1]
            rows, vals = indices[a:b], values[a:b]
            q = col[low] * vals[rows.index(low)]
        else:
            a, b = ends[-2 - p], ends[-1 - p]
            rows, vals = stored_rows[a:b], stored_vals[a:b]
            q = col[low] * units[-2 - p]
        for r, w in zip(rows, vals):
            x = col.pop(r, 0) - q * w
            if x:
                col[r] = x

    residual = []
    for c, rows, vals in m.columns(bytes(map(not_, clearing))):
        if not rows:
            continue
        low = max(rows)
        if pivot[low] == -1:
            if vals[rows.index(low)] in (1, -1):
                pivot[low] = c
            else:
                residual.append((rows, vals))
            continue
        col = dict(zip(rows, vals))
        while (p := pivot[low]) != -1:
            clear(col, low, p)
            if not col:
                break
            low = max(col)
        else:  # the column is left nonzero, its lowest row free
            v = col[low]
            if v == 1 or v == -1:
                pivot[low] = -2 - len(units)
                units.append(v)
                stored_rows.extend(col)
                stored_vals += col.values()
                ends.append(len(stored_rows))
            else:
                residual.append((tuple(col), tuple(col.values())))
    # a row may have gained its pivot after a residual column was swept past
    # it; clear the highest pivot row first, since subtracting a pivot column
    # can only add entries at smaller row indices than its own, so only the
    # rows below the one just cleared need looking at again
    cleared = []
    for rows, vals in residual:
        col = dict(zip(rows, vals))
        hit = [r for r in col if pivot[r] != -1]
        while hit:
            low = max(hit)
            clear(col, low, pivot[low])
            hit = [r for r in col if r < low and pivot[r] != -1]
        cleared.append(col)
    clearing[:] = bytes(map(ne, pivot, repeat(-1)))
    rows = sorted({r for col in cleared for r in col})
    dense = [[col.get(r, 0) for r in rows] for col in cleared]
    return [1] * (m.nrows - pivot.count(-1)) + dense_smith_normal_form(dense)


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


def _is_face_table(m: SparseIntMatrix, w: int) -> bool:
    """Whether m is laid out as a face table: its rows in an array, offsets
    stepping by w and the values (+1, -1, ...) in every column."""
    if not isinstance(m.indices, array) or m.indptr != range(0, m.nnz() + 1, w):
        return False
    for i, sign in enumerate(_signs(w)):
        vs = m.values[i::w]
        if vs.count(sign) != len(vs):
            return False
    return True


# columns of the high side gathered at once by the d o d check: a chunk's
# gathered rows are its only objects per column
DD_CHUNK_COLUMNS = 4096


def _unproved_columns(low: SparseIntMatrix, high: SparseIntMatrix) -> list:
    """The columns of high, in order, whose rows fail the face identity
    against low, both face tables (see ChainComplexZ.check_boundary_squared)."""
    w = high.indptr.step
    # each side's rows by position, as strided views of its face table
    lows = [memoryview(low.indices)[j::w - 1] for j in range(w - 1)]
    highs = memoryview(high.indices)
    unproved = []
    for start in range(0, high.ncols, DD_CHUNK_COLUMNS):
        stop = min(start + DD_CHUNK_COLUMNS, high.ncols)
        pick = [itemgetter(*highs[start * w + i:stop * w:w]) for i in range(w)]
        bad = set()
        for j, i in combinations(range(w), 2):
            left, right = pick[i](lows[j]), pick[j](lows[i - 1])
            if stop - start == 1:  # itemgetter of one index gives no tuple
                left, right = (left,), (right,)
            if left != right:
                bad.update(compress(count(start), map(ne, left, right)))
        unproved += sorted(bad)
    return unproved


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
        (+1, -1, +1, ...) (see _is_face_table).  In the d-th composite of
        two face tables every column of high has d + 2 rows, and each low
        column it names has d + 1.  The composite column is then the sum of
        the terms (i, j): row j of the column's i-th low column, with sign
        (-1)**(i + j).  For j < i the term (j, i - 1) has the opposite sign,
        and (i, j) -> (j, i - 1) maps {j < i} one-to-one onto {j >= i}; so
        if row j of low column i equals row i - 1 of low column j for every
        j < i, all terms cancel in pairs.  A simplicial boundary passes,
        since both rows are the simplex less its vertices j and i.  Each
        pair (j, i) is tested for DD_CHUNK_COLUMNS columns of high at once
        (_unproved_columns): an itemgetter of the chunk's rows at one
        position picks the named low rows, from low's face table sliced by
        position, in one call, and two such tuples are compared.  So the
        objects made per column live for one chunk, whatever the size of
        the boundary.

        A column whose rows differ at some pair, and every column of a
        composite with a side that is not a face table, are summed exactly
        by _composite_column_is_zero, and the first nonzero one ends the
        check.  No product matrix is built."""
        tables = [_is_face_table(b, w) for w, b in enumerate(self.boundaries, 2)]
        for (low, low_is_table), (high, high_is_table) in pairwise(zip(self.boundaries, tables)):
            for c in _unproved_columns(low, high) if low_is_table and high_is_table else range(high.ncols):
                span = slice(high.indptr[c], high.indptr[c + 1])
                if not _composite_column_is_zero(low, high.indices[span], high.values[span]):
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
