import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from array import array
from itertools import chain, combinations, permutations
from math import gcd, lcm, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from expcircle import complexes
from expcircle.complexes import (
    AbelianInvariants,
    ChainComplexZ,
    ExpModel,
    HomologyResult,
    SimplicialComplex,
    SparseIntMatrix,
    _barycenter,
    _build_exp_with_boundary,
    _check_simplicial,
    _bits,
    _face_table,
    _facets,
    _field,
    _flags,
    _grid_index,
    _grid_point,
    _inside,
    _pack,
    _proper_faces,
    _relabel,
    _subdivide,
    _tuples,
    _with_base_point,
    build_exp_model,
    build_symmetric_product,
    build_torus_complex,
    chain_complex,
    coordinate_permutation_action,
    dense_smith_normal_form,
    homology,
    relative_quotient_homology,
    rp3_collapse_oracle,
    smith_normal_form,
)


def H(*groups):
    return HomologyResult(tuple(AbelianInvariants(r, tuple(t)) for r, t in groups))


def point_complex():
    return SimplicialComplex.from_maximal([(0,)])


def sphere_complex():
    # boundary of the tetrahedron
    return SimplicialComplex.from_maximal(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


def rp2_complex():
    # classic 6-vertex triangulation of the projective plane
    return SimplicialComplex.from_maximal(
        [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
         (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
    )


def circle_complex(n):
    """The n-gon triangulation of a circle."""
    return SimplicialComplex.from_maximal([(i, (i + 1) % n) for i in range(n)])


def _tuples_of(cx):
    """cx's simplices as vertex tuples, a list per dimension."""
    return [list(_tuples(ss, d + 1, cx.bits)) for d, ss in enumerate(cx.simplices)]


def _complex(vertex_count, simplices_by_dim):
    """SimplicialComplex of simplices given as vertex sequences, each packed
    as the complex stores it on vertex_count vertices."""
    bits = _bits(vertex_count)
    return SimplicialComplex(vertex_count, [[_pack(s, bits) for s in ss] for ss in simplices_by_dim])


def _subdivision_data(k):
    """Vertex ids of the subdivision: one per simplex, in dimension order,
    so they rise along the face poset."""
    origin = list(k.vertex_tuples())
    return {s: i for i, s in enumerate(origin)}, origin


def _chains(k, labels, ends, bits):
    """_flags(k, labels, ends, bits) as tuples of labels, length by length."""
    return [c for w, ss in enumerate(_flags(k, labels, ends, bits), 1) for c in _tuples(ss, w, bits)]


def _all_chains(k):
    """Every chain of k's face poset, as the tuple of its elements'
    positions in dimension order (the vertex ids of the subdivision)."""
    size = sum(k.counts())
    return _chains(k, range(size), b"\1" * size, _bits(size))


def barycentric_subdivision(k):
    """First barycentric subdivision (combinatorial flags construction)."""
    size = sum(k.counts())
    return _subdivide(k, range(size), b"\1" * size)[0]


# ---------------------------------------------------------------------------
# smith normal form
# ---------------------------------------------------------------------------

def _snf(m):
    """smith_normal_form of m with no column skipped."""
    return smith_normal_form(m, bytearray(m.ncols))


def _snf_both(m):
    """The invariants of a dense matrix from the dense routine, checked
    equal to the sparse routine's on the same matrix."""
    diag = dense_smith_normal_form(m)
    assert _snf(SparseIntMatrix.from_dense(m)) == diag
    return diag


def test_snf_examples():
    assert _snf_both([[2]]) == [2]
    assert _snf_both([[1, 1], [1, 1]]) == [1]
    # gcd(3, -2) = 1, the extended-gcd oracle
    assert _snf_both([[3, -2]]) == [1]
    assert _snf_both([[-4]]) == [4]
    # no rows, no columns, only zeros: no invariants
    for m in ([], [[]], [[], [], []], [[0, 0], [0, 0]]):
        assert _snf_both(m) == []


def test_snf_divisibility_chain():
    diag = _snf_both([[2, 0], [0, 3]])
    assert diag == [1, 6]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def _matmul(a, b):
    """a times b for dense lists of rows, summed over the nonzero entries of
    both factors only: each nonzero a[i][k] adds its multiple of b's row k,
    held as its nonzero (column, value) pairs."""
    brows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                for j, y in brows[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def _det(mm):
    n = len(mm)
    if n == 1:
        return mm[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mm[1:]]
        total += (-1) ** j * mm[0][j] * _det(minor)
    return total


def test_snf_diagonal_matches_minor_gcds():
    # d1 * ... * dk is the gcd of the k x k minors, an oracle that shares no
    # step with the reduction
    rng = random.Random(31)
    for _ in range(50):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        diag = _snf_both(m)
        for k in range(1, 4):
            g = 0
            for rows in combinations(range(3), k):
                for cols in combinations(range(4), k):
                    g = gcd(g, _det([[m[r][c] for c in cols] for r in rows]))
            assert g == (prod(diag[:k]) if k <= len(diag) else 0)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0


def _unimodular(n, rng):
    """A random n x n integer matrix of determinant +-1: the identity under
    about 3n elementary row operations, each adding a multiple in -3..3 of
    one row to another or negating a row."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            k = rng.randint(-3, 3)
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    return u


def test_snf_recovers_a_known_chain():
    # U D V for a diagonal D with a known divisibility chain, zeros and
    # entries past 2**64 among it, and random unimodular U and V: a
    # reference that shares no step with either reduction, up to the 18 x 18
    # Fox matrices of a cover table.  Both routines, and the dense one on
    # the transpose, must give back the chain's nonzero entries
    rng = random.Random(47)
    for _ in range(150):
        m, n = rng.randint(1, 18), rng.randint(1, 18)
        invariants = [rng.choice((1, 1, 2, 3))]
        while len(invariants) < min(m, n):
            invariants.append(invariants[-1] * rng.choice((1, 1, 1, 2, 3, 5, 2**64 + 13)))
        rank = rng.randint(0, min(m, n))
        diagonal = invariants[:rank] + [0] * (min(m, n) - rank)
        rng.shuffle(diagonal)
        d = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)]
        a = _matmul(_matmul(_unimodular(m, rng), d), _unimodular(n, rng))
        assert dense_smith_normal_form(a) == invariants[:rank]
        assert dense_smith_normal_form([list(col) for col in zip(*a)]) == invariants[:rank]
        assert _snf(SparseIntMatrix.from_dense(a)) == invariants[:rank]


def _every_column(m):
    """m.columns with no column left out, each as its rows and values."""
    return ((rows, vals) for _, rows, vals in m.columns(b"\1" * m.ncols))


def _dense(m):
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for c, (rows, vals) in enumerate(_every_column(m)):
        for r, v in zip(rows, vals):
            out[r][c] = v
    return out


def _boundary_squared(*dense):
    """check_boundary_squared on a chain complex with these boundaries."""
    dims = [len(dense[0])] + [len(b[0]) for b in dense]
    return ChainComplexZ(dims, [SparseIntMatrix.from_dense(b) for b in dense]).check_boundary_squared()


def test_boundary_squared_check_matches_product():
    rng = random.Random(53)
    seen = set()
    # random pairs: the check fails exactly when the product has an entry
    for _ in range(50):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(m)] for _ in range(k)]
        want = not any(map(any, _matmul(a, b)))
        assert _boundary_squared(a, b) == want
        seen.add(want)
    # pairs that cancel to zero: N d1 and d2 M for real boundaries d1, d2 and
    # random integer N, M, so every entry is a sum of terms that cancel
    for cx in (sphere_complex(), rp2_complex(), build_torus_complex(2, 3)):
        d1, d2 = map(_dense, chain_complex(cx).boundaries)
        for _ in range(3):
            h, w = rng.randint(1, 4), rng.randint(1, 5)
            nn = [[rng.randint(-2, 2) for _ in d1] for _ in range(h)]
            mm = [[rng.randint(-2, 2) for _ in range(w)] for _ in d2[0]]
            a, b = _matmul(nn, d1), _matmul(d2, mm)
            assert not any(map(any, _matmul(a, b)))
            assert _boundary_squared(a, b)
            seen.add(True)
        # nonzero only in the last column of the product: d2 gains a column
        # e_j with column j of d1 nonzero, so every earlier column is summed
        j = next(j for j in range(len(d1[0])) if any(row[j] for row in d1))
        b = [row + [int(i == j)] for i, row in enumerate(d2)]
        prod = _matmul(d1, b)
        assert not any(any(row[:-1]) for row in prod) and any(row[-1] for row in prod)
        assert not _boundary_squared(d1, b)
        # and the second composite of three boundaries fails alone
        assert not _boundary_squared(d1, d2, [[0] for _ in range(len(d2[0]) - 1)] + [[1]])
        seen.add(False)
    assert seen == {True, False}
    # one standard column of d2 edited in a copy of its rows, so the face
    # identity proves nothing for it and the exact sum decides
    for cx in (sphere_complex(), rp2_complex(), build_torus_complex(2, 3),
               build_exp_model(2, 3).complex):
        low, high = chain_complex(cx).boundaries
        lows = [rows for rows, _ in _every_column(low)]
        highs = [rows for rows, _ in _every_column(high)]
        for c in (0, high.ncols // 2, high.ncols - 1):
            f0, f1, f2 = highs[c]
            others = [r for r in range(low.ncols) if r not in highs[c]]
            # preferably an edge that shares row 0 with f1, so that only
            # the last pair of positions, (1, 2), fails
            other = next((r for r in others if lows[r][0] == lows[f1][0]), others[0])
            # swapping rows 0 and 2 keeps the column, both being +1, so the
            # product stays zero though the pairing fails; replacing a row
            # makes it nonzero
            for rows, want in (((f2, f1, f0), True), ((f0, other, f2), False)):
                indices = array("I", high.indices)  # the face table stays as it is
                indices[high.indptr[c]:high.indptr[c + 1]] = array("I", rows)
                edited = SparseIntMatrix(high.nrows, high.ncols, indices, high.indptr, high.values)
                cc = ChainComplexZ([low.nrows, low.ncols, high.ncols], [low, edited])
                assert (not any(map(any, _matmul(_dense(low), _dense(edited))))) == want
                assert cc.check_boundary_squared() == want


def test_boundary_squared_reads_values_beside_a_face_table():
    # a boundary on the sphere's face table with other values: its rows
    # pass the face identity, so only the values can make a composite
    # nonzero; a negated column is not standard either and sums to zero
    d1, d2 = chain_complex(sphere_complex()).boundaries
    for low, high, want in (
        (d1, array("b", [1, -1, 1]) * 4, True),
        (d1, array("b", [1, 1, 1]) * 4, False),
        (d1, array("b", [1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1]), True),
        (array("b", [1, 1]) * 6, d2.values, False),
    ):
        if not isinstance(low, SparseIntMatrix):
            low = SparseIntMatrix(d1.nrows, d1.ncols, d1.indices, d1.indptr, low)
        high = SparseIntMatrix(d2.nrows, d2.ncols, d2.indices, d2.indptr, high)
        assert ChainComplexZ([4, 6, 4], [low, high]).check_boundary_squared() == want
        assert (not any(map(any, _matmul(_dense(low), _dense(high))))) == want


def _from_dense(cx):
    """cx's chain complex with every boundary rebuilt by from_dense, whose
    offsets are a list: no boundary is read as a face table."""
    cc = chain_complex(cx)
    return ChainComplexZ(cc.dims, [SparseIntMatrix.from_dense(_dense(b)) for b in cc.boundaries])


def _flipped(cx):
    """cx's chain complex with the last value of its top boundary negated,
    so that boundary is no face table and its last composite column is
    nonzero."""
    cc = chain_complex(cx)
    top = cc.boundaries[-1]
    values = array("b", top.values)
    values[-1] = -values[-1]
    cc.boundaries[-1] = SparseIntMatrix(top.nrows, top.ncols, top.indices, top.indptr, values)
    return cc


@pytest.mark.parametrize("make, summed, holds", [
    (lambda: chain_complex(sphere_complex()), 0, True),
    (lambda: chain_complex(rp2_complex()), 0, True),
    (lambda: chain_complex(build_torus_complex(2, 3)), 0, True),
    *[(lambda n=n: chain_complex(build_exp_model(2, n).complex), 0, True) for n in (3, 4, 5)],
    # the model with its short-key stratum coned off, as relative_quotient_homology takes it
    (lambda: chain_complex((m := build_exp_model(2, 3)).complex.cone(
        m.vertices(lambda key: len(key) < 2))), 0, True),
    (lambda: _from_dense(rp2_complex()), 10, True),
    (lambda: _from_dense(build_torus_complex(3, 3)), 324 + 162, True),
    (lambda: _flipped(sphere_complex()), 4, False),
    (lambda: _flipped(build_torus_complex(3, 3)), 162, False),
    pytest.param(lambda: chain_complex(build_exp_model(3, 3).complex), 0, True,
                 marks=pytest.mark.slow),
    pytest.param(lambda: chain_complex((m := build_exp_model(3, 3)).complex.cone(
        m.vertices(lambda key: len(key) < 3))), 0, True, marks=pytest.mark.slow),
], ids=["sphere", "rp2", "torus2-n3", "exp2-n3", "exp2-n4", "exp2-n5", "exp2-n3-coned",
        "rp2-dense", "torus3-n3-dense", "sphere-flipped", "torus3-n3-flipped", "exp3-n3",
        "exp3-n3-coned"])
def test_boundary_squared_fast_path(monkeypatch, make, summed, holds):
    # each boundary is classified whole.  The face identity proves every
    # column of a composite of two face tables, so a simplicial complex,
    # coned stratum included, sums none exactly.  A composite with another
    # side is summed column by column: all its high columns when it holds,
    # or when only its last column is nonzero.  torus3-n3 has 324 triangles
    # and 162 tetrahedra; with a value of its top boundary flipped, the
    # first composite is still two face tables and sums none
    exact = complexes._composite_column_is_zero
    calls = []
    monkeypatch.setattr(complexes, "_composite_column_is_zero",
                        lambda *args: calls.append(args) or exact(*args))
    assert make().check_boundary_squared() == holds
    assert len(calls) == summed


def test_boundary_squared_on_a_face_table_of_one_column_or_none(monkeypatch):
    # itemgetter of one index returns a scalar, which the chunked gather
    # wraps, so a face-table high side of one column is proved by the face
    # identity, and one of none holds.  The triangle's facet rows are
    # [2, 1, 0]; [2, 0, 1] keeps the face-table layout but names the edges
    # out of place, so the identity fails and the column is summed
    exact = complexes._composite_column_is_zero
    calls = []
    monkeypatch.setattr(complexes, "_composite_column_is_zero",
                        lambda *args: calls.append(args) or exact(*args))
    low, high = chain_complex(SimplicialComplex.from_maximal([(0, 1, 2)])).boundaries
    assert list(high.indices) == [2, 1, 0] and high.indptr == range(0, 4, 3)
    edited = SparseIntMatrix(3, 1, array("I", [2, 0, 1]), high.indptr, high.values)
    empty = SparseIntMatrix(3, 0, array("I"), range(0, 1, 3), array("b"))
    for top, want, summed in ((high, True, 0), (edited, False, 1), (empty, True, 0)):
        calls.clear()
        assert ChainComplexZ([3, 3, top.ncols], [low, top]).check_boundary_squared() == want
        assert len(calls) == summed


def _with_row(b, c, i, r):
    """b with row i of column c replaced by r, in a copy of its rows."""
    indices = array("I", b.indices)
    indices[b.indptr[c] + i] = r
    return SparseIntMatrix(b.nrows, b.ncols, indices, b.indptr, b.values)


@pytest.mark.parametrize("name", ["torus2-n3", "exp2-n3"])
def test_boundary_squared_in_chunks(monkeypatch, name):
    # the high side is gathered DD_CHUNK_COLUMNS columns at a time; with one
    # column more than a multiple of it, the last chunk has one column,
    # whose itemgetter gives an int, not a tuple.  A face table still sums
    # no column, and a row named out of place is found in the first chunk
    # and in the last: there the identity fails and the exact sum decides
    cx = build_torus_complex(2, 3) if name == "torus2-n3" else build_exp_model(2, 3).complex
    low, high = chain_complex(cx).boundaries
    exact = complexes._composite_column_is_zero
    calls = []
    monkeypatch.setattr(complexes, "_composite_column_is_zero",
                        lambda *args: calls.append(args) or exact(*args))
    for chunk in dict.fromkeys((high.ncols - 1, 17, 1)):  # 18 and 324 columns: 17 * 19 = 323
        monkeypatch.setattr(complexes, "DD_CHUNK_COLUMNS", chunk)
        assert (high.ncols - 1) % chunk == 0
        calls.clear()
        assert ChainComplexZ([low.nrows, low.ncols, high.ncols], [low, high]).check_boundary_squared()
        assert calls == []
        for c in (0, high.ncols - 1):
            f0, f1, f2 = high.indices[3 * c:3 * c + 3]
            other = next(r for r in range(low.ncols) if r not in (f0, f1, f2))
            edited = _with_row(high, c, 1, other)
            calls.clear()
            assert not ChainComplexZ([low.nrows, low.ncols, high.ncols], [low, edited]).check_boundary_squared()
            assert [args[1] for args in calls] == [edited.indices[3 * c:3 * c + 3]]


def test_boundary_squared_in_chunks_sums_a_boundary_laid_out_otherwise(monkeypatch):
    # a boundary that is no face table is summed column by column, whatever
    # the chunk size, and one nonzero column in the last chunk ends it
    monkeypatch.setattr(complexes, "DD_CHUNK_COLUMNS", 4)
    cc = _from_dense(build_torus_complex(2, 3))
    exact = complexes._composite_column_is_zero
    calls = []
    monkeypatch.setattr(complexes, "_composite_column_is_zero",
                        lambda *args: calls.append(args) or exact(*args))
    assert cc.check_boundary_squared() and len(calls) == cc.dims[2] == 18
    low, high = cc.boundaries
    dense = _dense(high)
    dense[0][-1] += 1  # the last column now maps to a nonzero chain
    calls.clear()
    edited = SparseIntMatrix.from_dense(dense)
    assert not ChainComplexZ(cc.dims, [low, edited]).check_boundary_squared()
    assert len(calls) == 18


def test_nonzero_boundary_squared_is_refused():
    d1 = SparseIntMatrix.from_dense([[1, 1]])
    d2 = SparseIntMatrix.from_dense([[1], [1]])
    with pytest.raises(ValueError):
        ChainComplexZ([1, 2, 1], [d1, d2]).homology()


def test_sub_list_not_closed_under_faces_is_refused():
    # striking the edge (0, 1) without its endpoints leaves the triangles
    # over it with boundaries whose own boundaries do not cancel
    pair = _struck_chains(sphere_complex(), [[], [(0, 1)]])
    with pytest.raises(ValueError, match="boundary of boundary is nonzero"):
        pair.homology()


SNF_ENTRIES = (0, 0, 0, 1, -1, 2, 3, -4, 6)


def test_snf_sparse_matches_dense():
    # small matrices with non-unit entries reach the residual path, where a
    # column must be cleared off pivot rows that appeared after its sweep
    rng = random.Random(37)
    for _ in range(300):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = [[rng.choice(SNF_ENTRIES) for _ in range(cols)] for _ in range(rows)]
        assert _snf(SparseIntMatrix.from_dense(m)) == dense_smith_normal_form(m)
    for m in (
        # column 0 is a pivot with -1 at its low row 2; columns 1 and 3 meet
        # it, and column 3 leaves a unit at row 1 that column 1's residual
        # must be cleared off; column 2 is zero
        [[1, 1, 0, 0], [0, 2, 0, 1], [-1, 3, 0, -1]],
        # -1 pivots met by +-1 and by non-unit entries, down a staircase
        [[1, 0, 2, 1], [-1, 1, -3, 0], [0, -1, 4, -1]],
        # a free lowest row holding 2 or 3 sends its column to the residual,
        # also when a later column takes that row as a unit pivot
        [[1, 0], [2, 1]],
        [[3]],
        [[1, 0, 0], [0, -2, 0], [0, 3, 0]],
        # zero columns only, and zero columns around a -1 pivot
        [[0, 0], [0, 0]],
        [[0, 1, 0], [0, -1, 0]],
    ):
        assert _snf(SparseIntMatrix.from_dense(m)) == dense_smith_normal_form(m)
    # columns of one width whose values are not the signs of a face table:
    # a unit pivot met again is reread with its own values
    d2 = chain_complex(rp2_complex()).boundaries[1]
    for pattern in ([1, 1, 1], [1, -1, 2], [-1, 3, 1]):
        m = SparseIntMatrix(d2.nrows, d2.ncols, d2.indices, d2.indptr, array("b", pattern) * d2.ncols)
        assert _snf(m) == dense_smith_normal_form(_dense(m))


def test_snf_sparse_large_with_torsion():
    # random blocks down the diagonal of a 210 x 240 matrix, rows and columns
    # shuffled: the invariants carry torsion from many blocks at once
    rng = random.Random(43)
    m = [[0] * 240 for _ in range(210)]
    r0 = c0 = 0
    while r0 < 204 and c0 < 232:
        h, w = rng.randint(2, 6), rng.randint(2, 8)
        for i in range(h):
            for j in range(w):
                m[r0 + i][c0 + j] = rng.choice(SNF_ENTRIES)
        r0 += h
        c0 += w
    row_order = list(range(210))
    col_order = list(range(240))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    m = [[m[r][c] for c in col_order] for r in row_order]
    diag = _snf(SparseIntMatrix.from_dense(m))
    assert diag == dense_smith_normal_form(m)
    assert any(x > 1 for x in diag)


def test_snf_stored_pivots_stay_exact():
    # reduced pivots live in one column store whose values are a list, so
    # entries beyond 2**64 must come back exact.  Column 1 meets column 0's
    # pivot at row 4 and is stored as the pivot of row 1 (unit +1), column 2
    # likewise as the pivot of row 2 (unit -1); column 3 meets both stored
    # pivots and ends in the residual list, and column 4, a residual from
    # the start (2 at its free row 3), is cleared against both stored
    # pivots in the residual pass, the torsion path
    b, c = 2**70, 2**65 + 1
    m = [[0, b, 3, 7, 0],
         [0, 1, 0, -1, c],
         [0, 0, -1, b, 1],
         [0, 0, 0, 0, 2],
         [1, 5, b, 0, 0],
         [0, 0, 0, 0, 0]]
    invs, mask = _snf_twice(SparseIntMatrix.from_dense(m))
    assert invs == dense_smith_normal_form(m) == [1, 1, 1, 1, 2 * (7 + 4 * b)]
    assert mask == bytearray([0, 1, 1, 0, 1, 0])  # the unit pivot rows
    # random matrices with entries of both signs past 2**64: reduced
    # columns carry them into the store, and the residual pass out of it
    rng = random.Random(41)
    entries = (0, 0, 0, 1, -1, 2, 2**64 + 1, -(2**70) - 3)
    for _ in range(200):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        assert _snf(SparseIntMatrix.from_dense(m)) == dense_smith_normal_form(m)


# ---------------------------------------------------------------------------
# homology of standard complexes
# ---------------------------------------------------------------------------

def test_homology_point():
    assert homology(point_complex()) == H((1, ()))


def test_homology_sphere():
    assert homology(sphere_complex()) == H((1, ()), (0, ()), (1, ()))


def test_homology_rp2():
    assert homology(rp2_complex()) == H((1, ()), (0, (2,)), (0, ()))


def test_homology_circle():
    assert homology(circle_complex(5)) == H((1, ()), (1, ()))


def test_boundary_squared_zero():
    for k in (sphere_complex(), rp2_complex(), build_torus_complex(2, 3)):
        assert chain_complex(k).check_boundary_squared()


def test_homology_invariant_under_subdivision():
    for k in (rp2_complex(), circle_complex(4)):
        assert homology(barycentric_subdivision(k)) == homology(k)


def test_euler_characteristic_matches_betti():
    for k in (sphere_complex(), rp2_complex(), build_torus_complex(2, 3)):
        hom = homology(k)
        assert k.euler_characteristic() == sum(
            (-1) ** d * b for d, b in enumerate(hom.betti)
        )


# ---------------------------------------------------------------------------
# validation, the face table and the boundaries built from it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("vertex_count, simplices, message", [
    (3, [[(0,), (1,), (2,)], [(0, 1)], [(0, 1, 2)]], r"missing face \(0, 2\) of \(0, 1, 2\)"),
    (2, [[(0,), (1,)], [(1, 0)]], r"unsorted simplex \(1, 0\)"),
    (3, [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 2, 1)]],
     r"unsorted simplex \(0, 2, 1\)"),
    (2, [[(0,), (1,)], [(1, 1)]], r"degenerate simplex \(1, 1\) in dimension 1"),
    (2, [[(0,), (1,)], [(0, 1)], [(0, 1, 1)]], r"degenerate simplex \(0, 1, 1\) in dimension 2"),
    (2, [[(0,), (1,)], [(0,)]], r"degenerate simplex \(0, 0\) in dimension 1"),
    (3, [[(0,), (1,), (2,)], [(1, 1, 2)]], r"unsorted simplex \(257, 2\)"),
    (3, [[(0,), (1,)]], "dimension 0 must list every vertex"),
    (2, [[(0,), (5,)]], "dimension 0 must list every vertex"),
    (1, [[(0,), (0, 1)]], "dimension 0 must list every vertex"),
    (0, [], "dimension 0 must list every vertex"),
], ids=["missing-face", "unsorted-edge", "unsorted-triangle", "degenerate-edge",
        "degenerate-triangle", "short-edge", "long-edge", "too-few-vertices", "vertex-off-range",
        "edge-in-dimension-0", "empty"])
def test_simplicial_complex_refusals(vertex_count, simplices, message):
    # given as vertex tuples and packed on vertex_count vertices: a short
    # edge packs with vertex 0 before its one id, and a third id packed into
    # an edge lands above its two fields, in vertex 0
    with pytest.raises(ValueError, match=message):
        _complex(vertex_count, simplices)


def test_missing_facet_looked_up_last_is_named():
    # the facets are looked up position by position over all simplices, so
    # the one missing here, facet 2 of the last triangle, is the last lookup;
    # the per-simplex loop still names it, after passing the first triangle
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (1, 4)]
    with pytest.raises(ValueError, match=r"^missing face \(1, 3\) of \(1, 3, 4\)$"):
        _complex(5, [[(v,) for v in range(5)], edges, [(0, 1, 2), (1, 3, 4)]])
    with pytest.raises(ValueError, match=r"^missing face \(0, 1\) of \(0, 1, 2\)$"):
        _complex(3, [[(0,), (1,), (2,)], [(1, 2), (0, 2)], [(0, 1, 2)]])


def _face_table_by_combinations(d, ss, row):
    """Reference face table: each simplex's facets by combinations, which
    drop the last vertex first, reversed so that facet i drops vertex i."""
    return array("I", [row[f] for s in ss for f in reversed(list(combinations(s, d)))])


@st.composite
def dimensions_with_rows(draw):
    """A dimension d >= 1 of a random complex, a sublist of its simplices
    (empty, one simplex or more, in any order) as vertex tuples, the row
    dict of the dimension below and the complex's field width."""
    n = draw(st.integers(2, 7))
    tops = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=4), min_size=1,
                         max_size=10))
    cx = SimplicialComplex.from_maximal([(v,) for v in range(n)] + [tuple(t) for t in tops])
    simplices = _tuples_of(cx)
    d = draw(st.integers(1, cx.dim))
    ss = draw(st.lists(st.sampled_from(simplices[d]), unique=True, max_size=len(simplices[d])))
    return d, ss, {s: i for i, s in enumerate(simplices[d - 1])}, cx.bits


@given(dimensions_with_rows(), st.sampled_from([1, 2, 3, complexes.FACET_CHUNK_SIMPLICES]))
def test_face_table_by_position_matches_combinations(case, chunk):
    # facet i cut out of the packed simplices by strided copies, a chunk of
    # simplices at a time, against the facets of the vertex tuples
    d, ss, row, bits = case
    packed = array("Q", [_pack(s, bits) for s in ss])
    rows = {_pack(s, bits): i for s, i in row.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "FACET_CHUNK_SIMPLICES", chunk)
        assert _face_table(d, packed, bits, rows) == _face_table_by_combinations(d, ss, row)


def test_face_table_by_position_edge_cases():
    # an empty dimension, a dimension of one simplex and edges, whose
    # facets are the vertex ids themselves
    row0 = {v: v for v in range(4)}
    row1 = {_pack(f, 8): i for i, f in enumerate([(0, 1), (0, 2), (1, 2)])}
    assert _face_table(1, array("Q"), 8, row0) == _face_table(3, array("Q"), 8, {}) == array("I")
    assert _face_table(1, array("Q", [_pack((0, 3), 8)]), 8, row0) == array("I", [3, 0])
    assert _face_table(2, array("Q", [_pack((0, 1, 2), 8)]), 8, row1) == array("I", [2, 1, 0])
    # a trailing empty dimension is looked up and dropped
    assert _complex(3, [[(0,), (1,), (2,)], [(0, 1)], []]).counts() == [3, 1]


def _field_by_mask(p, w, bits, i):
    """Vertex i of the packed simplex p of w vertices, by a shift and a mask."""
    return p >> (w - 1 - i) * bits & (1 << bits) - 1


def _facet_by_mask(p, d, i, bits):
    """Facet i of the packed d-simplex p: the fields after vertex i cut out
    by a mask and those before it shifted down over it."""
    low = (d - i) * bits
    return p >> low + bits << low | p & (1 << low) - 1


@st.composite
def packed_fields(draw):
    """Packed simplices of w fields of bits bits, any values in any order,
    with a set of kept values and a relabelling into new_bits bits."""
    bits = draw(st.sampled_from([8, 16, 32]))
    w = draw(st.integers(1, 64 // bits))
    value = st.sampled_from([0, 1, 2, (1 << bits) - 1]) | st.integers(0, (1 << bits) - 1)
    simplices = draw(st.lists(st.lists(value, min_size=w, max_size=w), max_size=12))
    values = sorted({v for s in simplices for v in s})
    new_bits = draw(st.sampled_from([b for b in (8, 16, 32) if w * b <= 64]))
    images = st.lists(st.integers(0, (1 << new_bits) - 1), min_size=len(values), max_size=len(values))
    keep = draw(st.sets(st.sampled_from(values))) if values else set()
    return bits, w, [_pack(s, bits) for s in simplices], keep, new_bits, dict(zip(values, draw(images)))


@pytest.mark.parametrize("order", ["little", "big"])
@given(case=packed_fields())
def test_packed_fields_match_shift_and_mask(order, case):
    # each field is one item of the packed array's bytes.  A machine of the
    # other byte order is simulated by byteswapped arrays, in and out: the
    # fields then sit at its slots but with their bytes in its order, so the
    # values read and written through a field, a vertex id, a label or a
    # kept id, are byteswapped too
    bits, w, packed, keep, new_bits, label = case
    swap = order != sys.byteorder
    ss = array("Q", packed)
    if swap:
        ss.byteswap()

    def values(out):
        out = array("Q", out)
        if swap:
            out.byteswap()
        return list(out)

    def item(v, b):
        return int.from_bytes(v.to_bytes(b // 8, "little"), "big") if swap else v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "sys", SimpleNamespace(byteorder=order))
        for i in range(w):
            want = [_field_by_mask(p, w, bits, i) for p in packed]
            assert [item(v, bits) for v in _field(ss, w, bits, i)] == want
            if w > 1:
                assert values(_facets(ss, w - 1, i, bits)) == [_facet_by_mask(p, w - 1, i, bits) for p in packed]
        read_label = {item(v, bits): item(image, new_bits) for v, image in label.items()}
        assert values(_relabel(ss, w, bits, new_bits, read_label)) == [
            _pack([label[_field_by_mask(p, w, bits, i)] for i in range(w)], new_bits) for p in packed]
        assert list(_inside(ss, w, bits, {item(v, bits) for v in keep})) == [
            j for j, p in enumerate(packed) if all(_field_by_mask(p, w, bits, i) in keep for i in range(w))]


def test_bits_above_the_fields_are_refused():
    # no field reads the bits above a simplex's fields, so its facets would
    # all be found; one check refuses them, and the per-simplex loop names
    # the simplex with those bits read as part of vertex 0, in order
    edges = [_pack(e, 8) for e in [(0, 1), (0, 2), (1, 2)]]
    with pytest.raises(ValueError, match=r"^unsorted simplex \(16777216, 1, 2\)$"):
        SimplicialComplex(3, [[0, 1, 2], edges, [_pack((0, 1, 2), 8) | 1 << 40]])
    with pytest.raises(ValueError, match=r"^unsorted simplex \(4096, 1\)$"):
        SimplicialComplex(3, [[0, 1, 2], [edges[0] | 1 << 20, _pack((1, 1), 8)]])
    with pytest.raises(ValueError, match=r"^degenerate simplex \(1, 1\) in dimension 1$"):
        SimplicialComplex(3, [[0, 1, 2], [_pack((1, 1), 8), edges[0] | 1 << 20]])
    # sixteen-bit fields fill a tetrahedron's 64 bits: nothing lies above
    tops = [(0, 1, 2, 3), (0, 1, 2, 256)]
    assert SimplicialComplex.from_maximal(tops + [(v,) for v in range(257)]).counts() == [257, 9, 7, 2]


def test_simplicial_complex_lists_each_simplex_once():
    # repeats in any order: each kept once, in the order first seen, except
    # that the vertices are listed 0..n-1
    cx = _complex(3, [[(2,), [0], (1,), (0,), (2,)], [(1, 2), [0, 1], (1, 2), (0, 1)]])
    assert _tuples_of(cx) == [[(0,), (1,), (2,)], [(1, 2), (0, 1)]]
    assert cx.simplices == [array("Q", [0, 1, 2]), array("Q", [1 << 8 | 2, 0 << 8 | 1])]
    assert list(cx.faces[1]) == [2, 1, 1, 0]
    # the face rows follow that order; facet i drops vertex i
    cx = _complex(3, [[(0,), (1,), (2,)], [(0, 2), (1, 2), (0, 1)], [(0, 1, 2)]])
    assert list(cx.faces[2]) == [1, 0, 2]


def _by_key(simplices_by_dim, keys):
    """Simplices with every vertex replaced by its key, per dimension:
    the same for two numberings of one quotient."""
    return [sorted(tuple(sorted(keys[v] for v in s)) for s in ss) for ss in simplices_by_dim]


# name -> complex
FACE_CASES = {
    "rp2": rp2_complex,
    **{f"exp2-n{n}": (lambda n=n: build_exp_model(2, n).complex) for n in (3, 4, 5)},
}


@pytest.mark.parametrize("name", list(FACE_CASES))
def test_face_table_matches_lookups(name):
    cx = FACE_CASES[name]()
    assert len(cx.faces) == cx.dim + 1 and not cx.faces[0]
    simplices = _tuples_of(cx)
    for d in range(1, cx.dim + 1):
        row = {f: i for i, f in enumerate(simplices[d - 1])}
        assert list(cx.faces[d]) == [row[s[:i] + s[i + 1:]] for s in simplices[d]
                                     for i in range(d + 1)]


def _boundaries_by_slicing(k, sub_simplices):
    """Reference for the chain complex of the pair (k, subcomplex): every
    face sliced off its simplex and looked up in a row dict of the basis
    left once sub_simplices, listed per dimension, are struck."""
    sub = [set(s) for s in sub_simplices] + [set()] * (k.dim + 1 - len(sub_simplices))
    bases = [[s for s in ss if s not in sub[d]] for d, ss in enumerate(_tuples_of(k))]
    out = []
    for d in range(1, k.dim + 1):
        row = {s: i for i, s in enumerate(bases[d - 1])}
        cols = {}
        for col, s in enumerate(bases[d]):
            faces = [(row.get(s[:i] + s[i + 1:]), -1 if i % 2 else 1) for i in range(d + 1)]
            entries = [(r, sign) for r, sign in faces if r is not None]
            if entries:
                cols[col] = entries
        out.append((len(bases[d - 1]), len(bases[d]), cols))
    return [len(b) for b in bases], out


def _struck_pair(k, vertices):
    """The chain complex of the pair (k, L), L the full subcomplex on a
    vertex set: a second model of relative homology beside the cone."""
    keep = set(vertices)
    return _struck_chains(k, [[s for s in ss if keep.issuperset(s)] for ss in _tuples_of(k)])


def _struck_chains(k, sub_simplices):
    """The chain complex of k with sub_simplices, listed per dimension,
    struck from the bases and from the boundary images, built from the
    reference."""
    dims, reference = _boundaries_by_slicing(k, sub_simplices)
    boundaries = []
    for nrows, ncols, cols in reference:
        indices, indptr, values = array("I"), [0], []
        for c in range(ncols):
            for r, v in cols.get(c, ()):
                indices.append(r)
                values.append(v)
            indptr.append(len(indices))
        boundaries.append(SparseIntMatrix(nrows, ncols, indices, indptr, values))
    return ChainComplexZ(dims, boundaries)


def _as_lists(cc):
    # a list of (row, value) pins the order of each column's entries, not
    # only its values; zero columns are left out, as the reference leaves them
    return cc.dims, [(b.nrows, b.ncols, {c: list(zip(rows, vals))
                                         for c, (rows, vals) in enumerate(_every_column(b))
                                         if rows})
                     for b in cc.boundaries]


@pytest.mark.parametrize("name", list(FACE_CASES))
def test_boundaries_match_face_slicing(name):
    cx = FACE_CASES[name]()
    assert _as_lists(chain_complex(cx)) == _boundaries_by_slicing(cx, ())


def test_chain_complex_shares_the_face_table():
    # every boundary is the complex's face table itself, not a copy, its
    # offsets stepping by the simplex width
    m = build_exp_model(2, 3)
    for cx in (sphere_complex(), m.complex, m.complex.cone(m.vertices(lambda key: len(key) < 2))):
        for d, b in enumerate(chain_complex(cx).boundaries, 1):
            assert b.indices is cx.faces[d]
            assert b.indptr == range(0, len(cx.faces[d]) + 1, d + 1)


@pytest.mark.parametrize("args, message", [
    ((2, 1, [5], [0, 1], [1]), r"row index outside 0\.\.1"),
    ((2, 1, [-1], [0, 1], [1]), r"row index outside 0\.\.1"),
    ((2, 3, [0, 1], [0, 2, 1, 2], [1, 1]), "need 4 offsets rising from 0 to 2"),
    ((2, 1, [0, 1], [0, 1], [1, 1]), "need 2 offsets rising from 0 to 2"),
    ((2, 1, [0, 1], [1, 2], [1, 1]), "need 2 offsets rising from 0 to 2"),
    ((2, 2, [0, 1], [0, 2], [1, 1]), "need 3 offsets rising from 0 to 2"),
    ((2, 2, [0, 1, 0], range(0, 4, 2), [1, 1, 1]), "need 3 offsets rising from 0 to 3"),
    ((2, 1, [0, 1], [0, 2], [1]), "1 values for 2 row indices"),
    ((2, 1, [0], [0, 1], [1, 2]), "2 values for 1 row indices"),
], ids=["row-past-end", "negative-row", "falling-offsets", "offsets-short-of-end",
        "offsets-not-from-0", "too-few-offsets", "range-past-end", "too-few-values",
        "too-many-values"])
def test_malformed_matrices_are_refused(args, message):
    # refused before any reduction: a row past the end used to give the
    # invariants [1], or an IndexError under a clearing mask
    with pytest.raises(ValueError, match=message):
        SparseIntMatrix(*args)


def test_matrix_tables_read_back_as_columns():
    m = SparseIntMatrix(3, 4, array("I", [2, 0, 1, 2]), [0, 1, 1, 4, 4], [5, -1, 3, 7])
    assert list(_every_column(m)) == [((2,), (5,)), ((), ()), ((0, 1, 2), (-1, 3, 7)), ((), ())]
    assert list(m.columns(b"\0\1\1\0")) == [(1, (), ()), (2, (0, 1, 2), (-1, 3, 7))]
    assert m.nnz() == 4 and _dense(m) == [[0, 0, -1, 0], [0, 0, 3, 0], [5, 0, 7, 0]]
    # one width: strided slices, the values pattern shared by every column
    m = SparseIntMatrix(3, 3, array("I", [0, 1, 1, 2, 0, 2]), range(0, 7, 2), array("b", [1, -1] * 3))
    cols = list(m.columns(b"\1\0\1"))
    assert cols == [(0, (0, 1), (1, -1)), (2, (0, 2), (1, -1))] and cols[0][2] is cols[1][2]
    m = SparseIntMatrix(3, 2, array("I", [0, 1, 1, 2]), range(0, 5, 2), [1, -1, 2, 3])
    assert list(_every_column(m)) == [((0, 1), (1, -1)), ((1, 2), (2, 3))]
    assert list(m.columns(b"\0\1")) == [(1, (1, 2), (2, 3))]
    assert list(_every_column(SparseIntMatrix(2, 3))) == [((), ())] * 3


# ---------------------------------------------------------------------------
# top-down reduction with clearing
# ---------------------------------------------------------------------------

def _reference_homology(cc: ChainComplexZ) -> HomologyResult:
    """Homology with every boundary reduced on its own by the dense routine."""
    invs = [dense_smith_normal_form(_dense(b)) for b in cc.boundaries]
    top = len(cc.dims) - 1
    groups = []
    for d in range(top + 1):
        rank_in = len(invs[d]) if d < top else 0
        rank_out = len(invs[d - 1]) if d > 0 else 0
        torsion = tuple(x for x in invs[d] if x > 1) if d < top else ()
        groups.append(AbelianInvariants(cc.dims[d] - rank_out - rank_in, torsion))
    return HomologyResult(tuple(groups))


@st.composite
def complexes_with_vertex_subsets(draw):
    n = draw(st.integers(1, 8))
    tops = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=12))
    cx = SimplicialComplex.from_maximal([(v,) for v in range(n)] + [tuple(t) for t in tops])
    return cx, draw(st.sets(st.integers(0, n - 1)))


@given(complexes_with_vertex_subsets())
def test_clearing_matches_separate_reductions(case):
    cx, keep = case
    assert homology(cx) == _reference_homology(chain_complex(cx))
    pair = _struck_pair(cx, keep)
    assert pair.check_boundary_squared()
    assert pair.homology() == _reference_homology(pair)


def test_clearing_reduces_long_column():
    # the edge (0, 299) takes pivot row 299 early, so the edge (298, 299)
    # reduces to zero through 299 subtractions
    assert homology(circle_complex(300)) == H((1, ()), (1, ()))


def test_clearing_skips_only_unit_pivots():
    # d2's column has lowest entry 2, so it proves only that twice column 1
    # of d1 is a combination of column 0; clearing column 1 would leave
    # d1 = [2] and report H_0 = Z/2, but every group is zero
    d1 = SparseIntMatrix.from_dense([[2, 1]])
    d2 = SparseIntMatrix.from_dense([[-1], [2]])
    clearing = bytearray(1)  # one byte per column of d2, none skipped
    assert smith_normal_form(d2, clearing) == [1]
    assert clearing == bytearray(2)  # no row for its one pivot, not a unit
    assert smith_normal_form(d1, clearing) == [1]
    assert clearing == bytearray([1])  # row 0 after d1
    assert ChainComplexZ([1, 2, 1], [d1, d2]).homology() == H((0, ()), (0, ()), (0, ()))
    with pytest.raises(ValueError):  # the mask must cover d1's two columns
        smith_normal_form(d1, bytearray(1))


def _snf_twice(m, clearing=None):
    """Reduce m twice, each time from a copy of the clearing mask (none by
    default: no column skipped), checking after each pass that its columns
    are unchanged; returns the invariants and the mask they leave, the same
    both times."""
    tables = (list(m.indices), list(m.indptr), list(m.values))
    out = []
    for _ in range(2):
        mask = bytearray(m.ncols if clearing is None else clearing)
        out.append((smith_normal_form(m, mask), mask))
        assert (list(m.indices), list(m.indptr), list(m.values)) == tables
    assert out[0] == out[1]
    return out[0]


def test_snf_leaves_its_input_unchanged():
    # the reduction only reads the input's flat tables, from which its
    # pivots' tuples are made; exp_2 at n=3 is a band, so its d2 is
    # injective and d1 has rank one short of its rows, reduced with and
    # without the mask d2 leaves
    d1, d2 = chain_complex(build_exp_model(2, 3).complex).boundaries
    invs, mask = _snf_twice(d2, bytearray(d2.ncols))
    assert invs == [1] * d2.ncols and any(mask)
    assert _snf_twice(d1)[0] == _snf_twice(d1, mask)[0] == [1] * (d1.nrows - 1)
    # a dense matrix with torsion: non-unit columns reach the residual pass,
    # and the dense routine copies its rows, given as lists or as tuples
    m = [[2, 4, 1, 0], [0, 6, 1, 3], [4, 2, 0, 9]]
    invs, _ = _snf_twice(SparseIntMatrix.from_dense(m))
    assert invs == dense_smith_normal_form(m) == dense_smith_normal_form(tuple(map(tuple, m)))
    assert invs[-1] > 1 and m == [[2, 4, 1, 0], [0, 6, 1, 3], [4, 2, 0, 9]]
    # under clearing, column 3 meets column 0, a pivot on the column's own
    # tuples with -1 at its low row, and column 2 is skipped
    m = [[1, 0, 1, 1], [0, 1, 1, 0], [-1, 0, 0, 1]]
    invs, mask = _snf_twice(SparseIntMatrix.from_dense(m), bytearray([0, 0, 1, 0]))
    assert invs == dense_smith_normal_form([row[:2] + row[3:] for row in m]) == [1, 1, 2]
    assert mask == bytearray([0, 1, 1])


# ---------------------------------------------------------------------------
# coning off a subcomplex
# ---------------------------------------------------------------------------

@given(complexes_with_vertex_subsets())
def test_cone_keeps_the_complex_and_matches_the_pair(case):
    # K u CL against K/L: the same homology as the struck pair with a base
    # point (an empty L leaves K with a separate apex, K/L being K plus a
    # point); and the cone's lookups agree with validating it from scratch
    cx, keep = case
    coned = cx.cone(keep)
    assert coned.vertex_count == cx.vertex_count + 1
    simplices, coned_simplices = _tuples_of(cx), _tuples_of(coned)
    for d, (ss, table) in enumerate(zip(simplices, cx.faces)):
        assert coned_simplices[d][:len(ss)] == ss
        assert coned.faces[d][:len(table)] == table
    # appended: the apex, then the cone on each simplex of L in L's order
    apex, top = cx.vertex_count, len(coned.simplices)
    added = [ss[len(old):] for ss, old in zip(coned_simplices, simplices + [[]])]
    want = [[(apex,)]] + [[s + (apex,) for s in ss if keep.issuperset(s)]
                          for ss in simplices]
    assert added == want[:top] and not any(want[top:])
    validated = SimplicialComplex(coned.vertex_count, coned.simplices)
    assert validated.simplices == coned.simplices and validated.faces == coned.faces
    # a cone on a top simplex adds a dimension, whose group is 0
    got = homology(coned).groups
    want = _with_base_point(_struck_pair(cx, keep).homology()).groups
    assert got[:len(want)] == want and set(got[len(want):]) <= {AbelianInvariants(0)}


def _rows_by_tuple(cx):
    """Every simplex of cx as a vertex tuple, mapped to the vertex tuples of
    its facets as its face table names them, in order."""
    simplices = _tuples_of(cx)
    out = {s: () for s in simplices[0]}
    for d in range(1, cx.dim + 1):
        for j, s in enumerate(simplices[d]):
            out[s] = tuple(simplices[d - 1][f] for f in cx.faces[d][j * (d + 1):(j + 1) * (d + 1)])
    return out


@pytest.mark.parametrize("make, vertices", [
    # 4 and 256 vertices: the apex, vertex 4 or 256, needs a wider field
    (sphere_complex, [0, 1, 2]),
    (lambda: circle_complex(256), range(0, 256, 2)),
    (lambda: circle_complex(256), range(100, 140)),
    (rp2_complex, [0, 1, 2, 4]),
    (lambda: build_exp_model(2, 3).complex, range(0, 168, 3)),
], ids=["sphere", "circle-256-alternate", "circle-256-arc", "rp2", "exp2-n3"])
def test_cone_matches_from_maximal(make, vertices):
    # simplex for simplex and row for row, the cone equals the complex
    # from_maximal closes from K's simplices and the cones on L's
    cx = make()
    keep, apex = set(vertices), cx.vertex_count
    coned = cx.cone(vertices)
    assert coned.bits == _bits(apex + 1)
    simplices = [s for ss in _tuples_of(cx) for s in ss]
    want = SimplicialComplex.from_maximal(
        simplices + [s + (apex,) for s in simplices if keep.issuperset(s)] + [(apex,)])
    assert sorted(map(sorted, _tuples_of(coned))) == sorted(map(sorted, _tuples_of(want)))
    assert _rows_by_tuple(coned) == _rows_by_tuple(want)


@pytest.mark.parametrize("build, n", [(build_exp_model, 3), (build_symmetric_product, 4)])
def test_full_matches_from_maximal(build, n):
    # simplex for simplex and row for row, renumbered back to the model's
    # vertex ids, a stratum equals the complex from_maximal closes from the
    # model's simplices on its vertices
    model = build(2, n)
    for pred in (lambda key: len(set(key)) < 2, lambda key: key[0] < model.period // 3):
        stratum, ids = model.full(pred)
        keep = set(ids)
        inside = [s for ss in _tuples_of(model.complex) for s in ss if keep.issuperset(s)]
        new = {q: v for v, q in enumerate(ids)}
        want = SimplicialComplex.from_maximal([tuple(new[q] for q in s) for s in inside])
        assert stratum.bits == _bits(len(ids))
        assert _rows_by_tuple(stratum) == _rows_by_tuple(want)


def test_packed_width_past_64_bits_is_refused():
    # fields are 8, 16 or 32 bits wide: four vertex ids of 32 bits pass 64,
    # a tetrahedron on 2**17 vertices, refused before any array is built
    with pytest.raises(ValueError, match="4 vertex ids of 32 bits pass the 64 bits"):
        SimplicialComplex.from_maximal([(v,) for v in range(2**17)] + [(0, 1, 2, 3)])
    # on 2**16 - 1 vertices the apex keeps 16-bit fields: the cone on an
    # edge fits, and the cone on a tetrahedron would need five fields
    cx = SimplicialComplex.from_maximal([(v,) for v in range(2**16 - 1)] + [(0, 1, 2, 3)])
    assert cx.bits == 16 and cx.cone([0, 1]).counts()[1:] == [8, 5, 1]
    with pytest.raises(ValueError, match="5 vertex ids of 16 bits pass the 64 bits"):
        cx.cone([0, 1, 2, 3])
    # on 2**16 vertices the apex widens every field to 32 bits, which K's
    # own tetrahedra cannot take
    cx = SimplicialComplex.from_maximal([(v,) for v in range(2**16)] + [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="4 vertex ids of 32 bits pass the 64 bits"):
        cx.cone([0, 1])
    # a 4-simplex of 16-bit ids passes 64 bits too; on 256 vertices it fits
    with pytest.raises(ValueError, match="5 vertex ids of 16 bits pass the 64 bits"):
        SimplicialComplex.from_maximal([(v,) for v in range(2**13)] + [(0, 1, 2, 3, 4)])
    assert SimplicialComplex.from_maximal([(v,) for v in range(2**8)] + [(0, 1, 2, 3, 4)]).bits == 8


# ---------------------------------------------------------------------------
# torus complexes
# ---------------------------------------------------------------------------

def test_torus_2_counts_and_homology():
    t2 = build_torus_complex(2, 3)
    assert t2.euler_characteristic() == 0
    assert homology(t2) == H((1, ()), (2, ()), (1, ()))


def test_torus_3_homology():
    t3 = build_torus_complex(3, 3)
    assert t3.euler_characteristic() == 0
    assert homology(t3) == H((1, ()), (3, ()), (3, ()), (1, ()))


def test_torus_rejects_bad_input():
    with pytest.raises(ValueError):
        build_torus_complex(4, 3)
    with pytest.raises(ValueError):
        build_torus_complex(2, 2)


def test_torus_action_is_simplicial():
    t2 = build_torus_complex(2, 3)
    gens = coordinate_permutation_action(2, 3)
    tops = set(_tuples_of(t2)[2])
    for g in gens:
        for s in tops:
            assert tuple(sorted(g[v] for v in s)) in tops


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_torus_swap_is_mobius_band():
    assert homology(build_symmetric_product(2, 3).complex) == H((1, ()), (1, ()), (0, ()))


def test_quotient_rejects_non_simplicial():
    # the check the torus build runs on the coordinate permutations
    k = circle_complex(5)
    with pytest.raises(ValueError, match="action does not carry simplices"):
        _check_simplicial(k, [[2, 1, 0, 3, 4]])  # maps the edge (2,3) off the complex
    with pytest.raises(ValueError, match="action does not carry simplices"):
        _check_simplicial(k, [[0, 0, 1, 2, 3]])  # degenerates the edge (0,1)
    _check_simplicial(k, [[(-i) % 5 for i in range(5)]])  # a reflection passes


def _symmetric_product_by_orbit_minimum(k, n):
    """Reference for build_symmetric_product, independent of its keys and
    fundamental domain: every sd1 simplex of the whole torus is labelled by
    the least of its images under all k! coordinate permutations, lifted to
    simplices of the torus.  Each quotient vertex is then named by the
    sorted barycentre of its label, the symmetric product's key."""
    k0 = build_torus_complex(k, n)
    ids, origin = _subdivision_data(k0)
    lifted = []
    for perm in permutations(range(k)):
        vertex = [_grid_index([_grid_point(i, k, n)[c] for c in perm], n)
                  for i in range(k0.vertex_count)]
        lifted.append([ids[tuple(sorted(vertex[v] for v in s))] for s in origin])

    k1, coords1, period = _sd1_barycentres(k, n)
    names = [min(tuple(sorted(table[v] for v in s)) for table in lifted) for s in k1.vertex_tuples()]
    cx, labels = _subdivide(k1, names, b"\1" * len(names))
    return ExpModel(cx, [tuple(sorted(_barycenter(s, coords1, period))) for s in labels], period)


def _sorted_point(point):
    return tuple(sorted(point))


@pytest.mark.parametrize("k, n", [(2, 3), (2, 5), pytest.param(3, 3, marks=pytest.mark.slow)])
def test_symmetric_product_matches_orbit_minimum(k, n):
    got = _build_exp_with_boundary(k, n, _sorted_point)
    want = _symmetric_product_by_orbit_minimum(k, n)
    assert got.complex.simplices == build_symmetric_product(k, n).complex.simplices
    assert got.complex.counts() == want.complex.counts()
    assert got.period == want.period and sorted(got.keys) == sorted(want.keys)
    assert _by_key(_tuples_of(got.complex), got.keys) == _by_key(_tuples_of(want.complex), want.keys)


@pytest.mark.parametrize("n", range(3, 7))
def test_symmetric_square_is_exp2(n):
    # for pairs the sorted tuple and the underlying set determine each
    # other, so the two keys make the same complex, list for list
    sp2, e2 = build_symmetric_product(2, n).complex, build_exp_model(2, n).complex
    assert sp2.simplices == e2.simplices
    assert sp2.faces == e2.faces


def test_exp2_is_closed_band():
    e2 = build_exp_model(2, 3).complex
    assert homology(e2) == H((1, ()), (1, ()), (0, ()))
    e2b = build_exp_model(2, 4).complex
    assert homology(e2b) == H((1, ()), (1, ()), (0, ()))


def test_exp2_top_count_closed_form():
    # n**k * ((k+1)!)**2 top simplices, the figure the CLI's size cap uses
    for n in range(3, 7):
        assert build_exp_model(2, n).complex.counts()[-1] == 36 * n**2


def test_exp2_marked_stratum_is_singleton_circle():
    # full validates its complex, so the stratum is closed under faces
    m = build_exp_model(2, 3)
    stratum, ids = m.full(lambda key: len(key) < 2)
    assert stratum.counts() == [12, 12]
    for ss, have in zip(_tuples_of(stratum), _tuples_of(m.complex)):
        assert {tuple(ids[v] for v in s) for s in ss} <= set(have)


def _full_by_comprehension(model, pred):
    """Reference for ExpModel.vertices and full: the vertices whose keys
    satisfy pred and the full subcomplex on them, in the model's own
    numbering and in its order within each dimension."""
    ids = [q for q, key in enumerate(model.keys) if pred(key)]
    keep = set(ids)
    return ids, [[s for s in ss if keep.issuperset(s)] for ss in _tuples_of(model.complex)]


@pytest.mark.parametrize("build, n", [(build_exp_model, 3), (build_exp_model, 5),
                                      (build_symmetric_product, 4)])
def test_full_matches_the_comprehension(build, n):
    # mapped back through ids, full lists the reference's simplices in the
    # same order, and the dimensions left empty are dropped; the keys of the
    # symmetric product repeat their points, so sizes are of sets.  Its face
    # tables, renumbered from the model's, are the ones validation finds for
    # the renumbered reference
    model = build(2, n)
    half = model.period // 2
    for pred in (lambda key: len(set(key)) < 2, lambda key: len(set(key)) == 2,
                 lambda key: key[0] < half):
        ids, want = _full_by_comprehension(model, pred)
        stratum, got = model.full(pred)
        assert got == model.vertices(pred) == ids
        assert [[tuple(ids[v] for v in s) for s in ss] for ss in _tuples_of(stratum)] == [
            ss for ss in want if ss]
        new = {q: v for v, q in enumerate(ids)}
        validated = _complex(len(ids), [[tuple(new[q] for q in s) for s in ss] for ss in want])
        assert stratum.vertex_count == validated.vertex_count
        assert stratum.simplices == validated.simplices
        assert stratum.faces == validated.faces


def test_full_refuses_an_empty_stratum():
    # no key of exp_2 has three points: the refusal names the empty stratum,
    # not the vertex check of the complex it would have built
    model = build_exp_model(2, 4)
    with pytest.raises(ValueError, match="^empty stratum: no vertex key satisfies the predicate$"):
        model.full(lambda key: len(key) == 3)
    assert model.vertices(lambda key: len(key) == 3) == []


def _sphere_stratum(tamper):
    """The sphere keyed by vertex id, its stratum {0, 1, 2}, one stratum
    that misses the triangle (0, 1, 2), and, tampered, facet 0 of that
    triangle naming the edge (1, 3)."""
    cx = sphere_complex()
    assert _tuples_of(cx)[2][0] == (0, 1, 2) and _tuples_of(cx)[1][4] == (1, 3)
    if tamper:
        cx.faces[2][0] = 4
    return ExpModel(cx, list(range(4)), 4), (lambda key: key < 3), (lambda key: key < 2)


def _exp2_stratum(tamper):
    """build_exp_model(2, 3), its circle stratum, its pair stratum, which
    misses the singleton edge (0, 34), and, tampered, facet 0 of that edge
    naming vertex 1, a pair."""
    model = build_exp_model(2, 3)
    cx = model.complex
    j = cx.simplices[1].index(_pack((0, 34), cx.bits))
    assert cx.faces[1][2 * j] == 34 and len(model.keys[1]) == 2
    if tamper:
        cx.faces[1][2 * j] = 1
    return model, (lambda key: len(key) < 2), (lambda key: len(key) == 2)


@pytest.mark.parametrize("make, missing", [
    (_exp2_stratum, r"\(34,\) of \(0, 34\)"),
    (_sphere_stratum, r"\(1, 2\) of \(0, 1, 2\)"),
], ids=["dim1", "dim2"])
@pytest.mark.parametrize("caller", [
    lambda model, pred: model.complex.cone(model.vertices(pred)),
    lambda model, pred: model.full(pred)[0],
], ids=["cone", "full"])
def test_stratum_walk_refuses_a_face_row_outside_the_stratum(caller, make, missing):
    # cone and full share one walk and one message, naming the model's
    # simplex and its missing facet, not a simplex renumbered past the row
    model, stratum, other = make(tamper=True)
    with pytest.raises(ValueError, match=rf"^missing face {missing}$"):
        caller(model, stratum)
    # a stratum that does not need the row is built as before
    assert caller(model, other).counts() == caller(make(tamper=False)[0], other).counts()


@pytest.mark.parametrize("k, n, counts", [
    (2, 3, [[12, 12], [156, 432, 276]]),
    (2, 4, [[16, 16], [280, 792, 512]]),
    pytest.param(3, 3, [[12, 12], [156, 432, 276], [2668, 14632, 22260, 10296]],
                 marks=pytest.mark.slow),
], ids=["k2-n3", "k2-n4", "k3-n3"])
def test_open_strata(k, n, counts):
    # the full subcomplexes on the keys of one size: the singletons are the
    # circle exp_1, the pairs an open Moebius band and the triples an open
    # solid torus, each with the homology of a circle
    model = build_exp_model(k, n)
    for size, want in enumerate(counts, 1):
        stratum, _ = model.full(lambda key: len(key) == size)
        assert stratum.counts() == want
        assert homology(stratum) == H((1, ()), (1, ()), *[(0, ())] * (size - 1))


# ---------------------------------------------------------------------------
# the subdivisions of the build against references
# ---------------------------------------------------------------------------

def _identify_all_chains(k, names, ends):
    """Reference for complexes._subdivide: every chain of k's face poset
    whose elements are all flagged in ends, each mapped through the names
    by itself and sorted, the flagged names numbered in order of first
    sight."""
    qid_by_key = {}
    qid = [qid_by_key.setdefault(name, len(qid_by_key)) if end else None for name, end in zip(names, ends)]
    out = [set() for _ in range(k.dim + 1)]
    for c in _all_chains(k):
        if None in (q := [qid[v] for v in c]):
            continue
        if len(set(q)) != len(q):
            raise ValueError("identification degenerates a simplex")
        out[len(q) - 1].add(tuple(sorted(q)))
    cx = _complex(len(qid_by_key), [sorted(s) for s in out])
    return cx, list(qid_by_key)


def _sd1_barycentres(k, n):
    """The first subdivision of the whole k-torus on an n-grid, the
    barycentre of each torus simplex (a vertex of it) and the period."""
    k0 = build_torus_complex(k, n)
    scale = lcm(*range(1, k + 2)) ** 2
    period = n * scale
    coords0 = [tuple(x * scale for x in _grid_point(i, k, n)) for i in range(k0.vertex_count)]
    bcs = [_barycenter(s, coords0, period) for s in k0.vertex_tuples()]
    return (*_subdivide(k0, bcs, b"\1" * len(bcs)), period)


def _is_sorted(point):
    return list(point) == sorted(point)


def _identify_whole_torus(k, n):
    """Reference for _build_exp_with_boundary: the same keys on the first
    subdivision of the whole torus, not only of the fundamental domain, the
    closure of the torus simplices with a sorted barycentre."""
    k1, coords1, period = _sd1_barycentres(k, n)
    keys = [tuple(sorted(set(_barycenter(s, coords1, period)))) for s in k1.vertex_tuples()]
    return ExpModel(*_subdivide(k1, keys, b"\1" * len(keys)), period)


def _marked_by_masks(k, n):
    """Reference for the pair stratum of _build_exp_with_boundary, traced by
    coordinate-pair masks instead of vertex keys: each sd1 simplex of the
    whole torus gets one bit per coordinate pair, set where its barycentre's
    two coordinates agree, and a quotient simplex is marked when some chain
    of the second subdivision over it has a nonzero AND of its element
    masks.  Quotient simplices are given by their vertices' keys, in each
    dimension that has any, as a full subcomplex lists them."""
    k1, coords1, period = _sd1_barycentres(k, n)
    _, origin = _subdivision_data(k1)
    pairs = list(combinations(range(k), 2))
    keys = []
    masks = []
    for s in origin:
        bc = _barycenter(s, coords1, period)
        keys.append(tuple(sorted(set(bc))))
        masks.append(sum(1 << bit for bit, (i, j) in enumerate(pairs) if bc[i] == bc[j]))
    marked = [set() for _ in range(k + 1)]
    for c in _all_chains(k1):
        m = masks[c[0]]
        for v in c[1:]:
            m &= masks[v]
        if m:
            marked[len(c) - 1].add(tuple(sorted(keys[v] for v in c)))
    return [sorted(s) for s in marked if s]


def _short_by_key(model, k):
    """The full subcomplex on the vertices whose key has fewer than k
    points, each vertex named by its key."""
    stratum, ids = model.full(lambda key: len(key) < k)
    return _by_key(_tuples_of(stratum), [model.keys[q] for q in ids])


@pytest.mark.parametrize("n", range(3, 7))
def test_exp2_marked_stratum_matches_masks(n):
    assert _short_by_key(_build_exp_with_boundary(2, n), 2) == _marked_by_masks(2, n)


@pytest.mark.parametrize("k, n", [(2, n) for n in range(3, 8)] + [(3, 3), (3, 4)])
def test_sorted_barycentre_iff_last_torus_simplex_sorted(k, n):
    # an sd1 simplex is a flag of torus simplices, numbered in dimension
    # order, so its last vertex is the flag's last torus simplex
    k1, coords1, period = _sd1_barycentres(k, n)
    sorted_last = 0
    for s in k1.vertex_tuples():
        last = _is_sorted(coords1[s[-1]])
        assert _is_sorted(_barycenter(s, coords1, period)) == last, s
        sorted_last += last
    assert 0 < sorted_last < sum(k1.counts())


@pytest.mark.parametrize("k, n", [(2, n) for n in range(3, 7)] + [
    (3, 3), pytest.param(3, 4, marks=pytest.mark.slow)])
def test_domain_build_matches_whole_torus(k, n):
    # the same quotient up to vertex numbering: keys, simplices and the
    # short-key stratum agree once every vertex is named by its key
    got, want = _build_exp_with_boundary(k, n), _identify_whole_torus(k, n)
    assert got.complex.counts() == want.complex.counts()
    assert got.period == want.period and sorted(got.keys) == sorted(want.keys)
    assert _by_key(_tuples_of(got.complex), got.keys) == _by_key(_tuples_of(want.complex), want.keys)
    assert _short_by_key(got, k) == _short_by_key(want, k)


def _quotient_data(model):
    """What two builds of one quotient share, field by field: the vertex
    count and each dimension's set of simplices, the keys and the period;
    the order within a dimension is the order the chains were met in, which
    differs between the two."""
    cx, keys, period = model
    return cx.vertex_count, [set(ss) for ss in _tuples_of(cx)], keys, period


@pytest.mark.parametrize("build", [
    *(lambda n=n: _build_exp_with_boundary(2, n) for n in range(3, 7)),
    *(lambda n=n: build_symmetric_product(2, n) for n in (3, 5)),
], ids=["exp2-n3", "exp2-n4", "exp2-n5", "exp2-n6", "T2-n3", "T2-n5"])
def test_orbit_filter_matches_all_chains(monkeypatch, build):
    # the orbit filter is the fundamental domain L: the build maps only the
    # chains of sd1(L), which meet every orbit of the torus's chains.  Its
    # second subdivision against the reference, which maps each chain of
    # sd1(L) by itself: the same quotient, vertex for vertex
    got = _quotient_data(build())
    _second_subdivision_by(monkeypatch, _identify_all_chains)
    assert got == _quotient_data(build())


def _second_subdivision_by(monkeypatch, subdivide):
    """Make the second call of _subdivide in each build, the quotient's, a
    call of subdivide."""
    calls, first = [], complexes._subdivide

    def second(k, names, ends):
        calls.append(None)
        return (subdivide if len(calls) % 2 == 0 else first)(k, names, ends)

    monkeypatch.setattr(complexes, "_subdivide", second)


def _off_top_keys(k1, own_vertex):
    """Names of the simplices of k1 giving each top simplex the name of one
    vertex, which is numbered before it: off the simplex, or on it if
    own_vertex.  Those quotient ids decrease along the chains ending at a
    top simplex."""
    def name(s):
        if len(s) == k1.dim + 1:
            others = sorted(set(range(k1.vertex_count)) - set(s))
            return ((s[0] if own_vertex else others[len(others) // 2]),)
        return s
    return [name(s) for s in k1.vertex_tuples()]


@pytest.mark.parametrize("k", [circle_complex(5), rp2_complex(), build_torus_complex(2, 3)],
                         ids=["circle-n5", "rp2", "T2-n3"])
def test_non_rising_labels_are_refused(k):
    # a quotient id below a face's is refused, not put in sorted position;
    # one equal to a face's degenerates the simplex, which the reference
    # refuses too
    k1 = barycentric_subdivision(k)
    every = b"\1" * sum(k1.counts())
    # the refusal names the face and the simplex as vertex tuples
    with pytest.raises(ValueError, match=r"label \d+ of \(\d+(, \d+)*,?\) is not below label "
                                         r"\d+ of \(\d+(, \d+)+\)$"):
        _subdivide(k1, _off_top_keys(k1, own_vertex=False), every)
    for identify in (_subdivide, _identify_all_chains):
        with pytest.raises(ValueError, match="identification degenerates a simplex"):
            identify(k1, _off_top_keys(k1, own_vertex=True), every)


@pytest.mark.parametrize("seed", range(4))
def test_flags_closure_memo_matches_brute_force(seed):
    # random ends closed under faces, as _flags requires, and random labels
    # that rise in dimension order, shuffled within each dimension, with gaps
    rng = random.Random(seed)
    k1 = barycentric_subdivision(rp2_complex() if seed % 2 else build_torus_complex(2, 3))
    position, origin = _subdivision_data(k1)
    size = len(origin)
    values = sorted(rng.sample(range(3 * size), size))
    labels = []  # by position in dimension order
    for ss in k1.simplices:
        block = values[len(labels):len(labels) + len(ss)]
        rng.shuffle(block)
        labels += block
    ends = {position[f] for g in rng.sample(range(size), size // 5)
            for f in chain(_proper_faces(origin[g]), [origin[g]])}
    assert len(ends) < size
    want = sorted(tuple(sorted(labels[v] for v in c)) for c in _all_chains(k1) if c[-1] in ends)
    mask = bytes(g in ends for g in range(size))
    assert sorted(_chains(k1, labels, mask, _bits(3 * size))) == want


@pytest.mark.slow
@pytest.mark.parametrize("build", [build_exp_model, build_symmetric_product])
def test_pair_builds_at_the_size_cap(build):
    # n = 58 is the largest mesh the CLI admits for k = 2: the quotient ids
    # rise along every chain there too, so the build refuses nothing
    assert build(2, 58).complex.counts()[-1] == 36 * 58**2


@pytest.mark.slow
def test_orbit_filter_matches_all_chains_exp3(monkeypatch):
    # the fundamental domain's first subdivision has 3 170 simplices, and
    # 69 846 of the 407 160 chains of the torus's second subdivision end
    # there
    mapped = []

    def counting_flags(k, labels, ends, bits):
        out = _flags(k, labels, ends, bits)
        mapped.append(sum(map(len, out)))
        return out

    monkeypatch.setattr(complexes, "_flags", counting_flags)
    model = _build_exp_with_boundary(3, 3)
    assert mapped == [3170, 69846]
    assert _short_by_key(model, 3) == _marked_by_masks(3, 3)
    _second_subdivision_by(monkeypatch, _identify_all_chains)
    assert _quotient_data(model) == _quotient_data(_build_exp_with_boundary(3, 3))


def _model_digest(model):
    """sha256 of a model simplex for simplex: its vertex count, each
    dimension's packed simplices and face table as lists of ints, its keys
    and its period, so the figure does not depend on the machine's byte
    order."""
    cx = model.complex
    data = (cx.vertex_count, [ss.tolist() for ss in cx.simplices], [t.tolist() for t in cx.faces],
            model.keys, model.period)
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("build, k, n, digest", [
    (build_exp_model, 3, 3,
     "58fce622a9716305c407654d4a9363cd26134f02579b1c07d0faadedaebc2a21"),
    (build_exp_model, 2, 5,
     "ddf069145d76526554a6e111ebbc7728effbb444793bcc390147379dd2e176c7"),
    (build_symmetric_product, 2, 3,
     "abe6930893671258d1f4c29fac2705c8420a802fff13805a1e04e0121a782457"),
], ids=["exp3-n3", "exp2-n5", "SP2-n3"])
def test_model_is_pinned_simplex_for_simplex(build, k, n, digest):
    # the order of every dimension, the face tables and the vertex numbering
    # are outputs too: a change to the build must leave them as they are
    assert _model_digest(build(k, n)) == digest


def test_build_order_does_not_depend_on_the_hash_seed():
    # each dimension is listed in the order its chains are met, which comes
    # from iterating lists; sets are only asked for membership
    src = str(Path(complexes.__file__).resolve().parent.parent)
    code = ("from expcircle.complexes import _build_exp_with_boundary\n"
            "cx, keys, _ = _build_exp_with_boundary(2, 3)\n"
            "print(cx.simplices, [t.tolist() for t in cx.faces], keys)")
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
           for seed in ("0", "4242")]
    cx, keys, _ = _build_exp_with_boundary(2, 3)
    assert out[0] == out[1] == f"{cx.simplices} {[t.tolist() for t in cx.faces]} {keys}\n"


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments alive in the caller until it returns")
@pytest.mark.parametrize("k", [2, 3])
def test_build_drops_each_stage_before_validating_the_quotient(monkeypatch, k):
    # the build validates three complexes in turn: the torus, its first
    # subdivision and the quotient.  When the quotient's validation starts,
    # the two before it are unreachable, so they are already freed
    made, alive = [], []
    init = SimplicialComplex.__init__

    def tracking_init(self, vertex_count, simplices_by_dim):
        if len(made) == 2:
            alive.extend(ref() is not None for ref in made)
        made.append(weakref.ref(self))
        init(self, vertex_count, simplices_by_dim)

    monkeypatch.setattr(SimplicialComplex, "__init__", tracking_init)
    model = _build_exp_with_boundary(k, 3)
    assert len(made) == 3 and made[2]() is model.complex
    assert alive == [False, False]


def test_asymmetric_torus_is_refused(asymmetric_torus):
    # the fundamental domain is one only for a symmetric triangulation
    with pytest.raises(ValueError, match="action does not carry simplices"):
        _build_exp_with_boundary(2, 3)


# ---------------------------------------------------------------------------
# the subset-space model (k = 3 cases are the slow ones)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_plain_permutation_quotient_differs_from_subset_space():
    # identifying tuples only up to permutation yields the symmetric product,
    # a circle-like space with boundary; the subset space needs the extra
    # collapse of repeated coordinates (compare build_exp_model)
    sp3 = build_symmetric_product(3, 3).complex
    assert sp3.counts() == [2992, 18868, 31428, 15552]
    assert homology(sp3) == H((1, ()), (1, ()), (0, ()), (0, ()))


@pytest.mark.slow
def test_exp3_homology_is_sphere_n3():
    e3 = build_exp_model(3, 3).complex
    assert e3.euler_characteristic() == 0
    assert homology(e3) == H((1, ()), (0, ()), (0, ()), (1, ()))


# tracemalloc peak of homology(build_exp_model(3, 3).complex), build excluded, in
# bytes: 26.49 MB when each column was a dict (27.07 MB under Python 3.10),
# 13.81 MB with row and value tuples (13.85 MB under 3.10), 14.01 MB with a
# dict per pivot column, 10.36 MB with pivots on the boundary's own tuples
# (Python 3.11), which read 10.63 MB on the machine that measured the next
# figure: 6.11 MB with the boundaries sharing the complex's face tables and
# a column made a tuple only when the reduction reaches it.  With packed
# simplices and an unreduced unit pivot kept as its column's index it read
# 3.86 MB, and 1.71 MB with the reduced pivots in one column store of flat
# arrays (Python 3.11.7, one machine).  The bound sits halfway between the
# last two.  tracemalloc counts Python allocations, so the figure repeats.
HOMOLOGY_PEAK_BOUND = 2_784_000


@pytest.mark.slow
def test_exp3_homology_peak_memory():
    e3 = build_exp_model(3, 3).complex
    tracemalloc.start()
    try:
        h = homology(e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.betti == [1, 0, 0, 1]
    assert peak < HOMOLOGY_PEAK_BOUND, f"peak {peak / 1e6:.2f} MB"


def _phase_peaks(n):
    """The tracemalloc peaks of homology 3's phases at mesh n, in bytes: the
    build from nothing traced, and the d o d check and the largest of the
    three Smith forms above what was traced before each, as cmd_homology
    runs them with the model dropped; and what the chain complex holds."""
    tracemalloc.start()
    try:
        cx = build_exp_model(3, n).complex
        build = tracemalloc.get_traced_memory()[1]
        chains = chain_complex(cx)
        del cx
        tracemalloc.reset_peak()
        held = before = tracemalloc.get_traced_memory()[0]
        assert chains.check_boundary_squared()
        dd = tracemalloc.get_traced_memory()[1] - before
        clearing, snf = bytearray(chains.dims[-1]), 0
        for b in reversed(chains.boundaries):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            smith_normal_form(b, clearing)
            snf = max(snf, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return {"build": build, "dd_check": dd, "smith_form": snf, "chains": held}


# the tracemalloc peak of each phase of homology 3 at n=3 (_phase_peaks), in
# bytes (Python 3.11.7; run alone and in the tier-1 suite, within 0.4 MB):
# with a tuple per simplex, the d o d check's rows by position as lists and
# every unit pivot's tuples kept, the build read 8.22 MB, the check 6.48 MB
# and the Smith form (d3) 5.50 MB; with packed simplices, the check in chunks
# of DD_CHUNK_COLUMNS columns read through views of the face tables and an
# unreduced unit pivot kept as its column's index, 4.71, 1.43 and 4.09 MB.
# Each bound sat halfway between the two, so a phase that no longer sets
# the op's peak still fails here if it grows back.  With the reduced pivots
# in one column store of flat arrays the Smith form read 1.50 MB against
# 4.08 MB at its parent on one machine (build 4.84 MB on both), and its
# bound sits halfway between those two
PHASE_PEAK_BOUNDS = {"build": 6_465_000, "dd_check": 3_955_000, "smith_form": 2_791_000}


@pytest.mark.slow
def test_exp3_phase_peak_memory():
    peaks = _phase_peaks(3)
    for phase, bound in PHASE_PEAK_BOUNDS.items():
        assert peaks[phase] < bound, f"{phase} peak {peaks[phase] / 1e6:.2f} MB"


@pytest.mark.slow
def test_exp3_smith_form_stays_below_the_build_n5():
    # while each reduced pivot kept a tuple per entry, the top Smith form set
    # the op's peak from n=5 on (the chain complex 4.49 MiB plus 18.50 MiB
    # against a build of 21.22 MiB); from one column store it stays below
    peaks = _phase_peaks(5)
    assert peaks["chains"] + peaks["smith_form"] < peaks["build"], {k: v / 2**20 for k, v in peaks.items()}


@pytest.mark.slow
def test_exp3_homology_is_sphere_n4():
    e3 = build_exp_model(3, 4).complex
    assert e3.counts() == [6712, 43576, 73728, 36864]
    assert homology(e3) == H((1, ()), (0, ()), (0, ()), (1, ()))


@pytest.mark.slow
def test_exp3_marked_stratum_is_exp2():
    # the degenerate triples are the pair space, simplex for simplex in count
    # (full validates its complex, so the stratum is closed under faces)
    stratum, _ = build_exp_model(3, 3).full(lambda key: len(key) < 3)
    assert stratum.counts() == build_exp_model(2, 3).complex.counts() == [168, 492, 324]


@pytest.mark.slow
def test_relative_quotient_matches_oracle():
    assert relative_quotient_homology(3) == rp3_collapse_oracle()


@pytest.mark.parametrize("k, n", [(2, 3), (2, 4), pytest.param(3, 3, marks=pytest.mark.slow)])
def test_coned_stratum_matches_struck_pair(k, n):
    # two models of the collapsed space: the stratum coned off, and struck
    # from the chains with the base point put back.  exp_2 with exp_1
    # collapsed is RP^2, whose Z/2 reaches the dense residual; exp_3 with
    # exp_2 collapsed is the projective oracle's space
    model = build_exp_model(k, n)
    short = model.vertices(lambda key: len(key) < k)
    coned = homology(model.complex.cone(short))
    struck = _with_base_point(_struck_pair(model.complex, short).homology())
    assert coned == struck
    if k == 2:
        assert coned == H((1, ()), (0, (2,)), (0, ()))
    else:
        assert coned == rp3_collapse_oracle() == relative_quotient_homology(n)


def test_rp3_oracle_table():
    oracle = rp3_collapse_oracle()
    assert oracle.betti == [1, 0, 1, 1]
    assert all(t == () for t in oracle.torsion)
