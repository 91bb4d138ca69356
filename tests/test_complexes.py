import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from itertools import chain, combinations, permutations
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from expcircle import complexes
from expcircle.complexes import (
    AbelianInvariants,
    ChainComplexZ,
    HomologyResult,
    SimplicialComplex,
    SparseIntMatrix,
    _barycenter,
    _build_exp_with_boundary,
    _check_simplicial,
    _flags,
    _grid_index,
    _grid_point,
    _subdivision_data,
    _with_base_point,
    barycentric_subdivision,
    build_exp_complex,
    build_symmetric_product,
    build_torus_complex,
    chain_complex,
    circle_complex,
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


# ---------------------------------------------------------------------------
# smith normal form
# ---------------------------------------------------------------------------

def _snf_both(m):
    """The invariants of a dense matrix from the dense routine, checked
    equal to the sparse routine's on the same matrix."""
    diag = dense_smith_normal_form(m)
    assert smith_normal_form(SparseIntMatrix.from_dense(m)) == diag
    return diag


def test_snf_examples():
    assert _snf_both([[2]]) == [2]
    assert _snf_both([[1, 1], [1, 1]]) == [1]
    # gcd(3, -2) = 1, the extended-gcd oracle
    assert _snf_both([[3, -2]]) == [1]
    assert _snf_both([[0, 0], [0, 0]]) == []


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


def _dense(m):
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for c, (rows, vals) in enumerate(m.columns()):
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
    for cx in (sphere_complex(), rp2_complex(), build_torus_complex(2, 3), build_exp_complex(2, 3)):
        low, high = chain_complex(cx).boundaries
        lows = [rows for rows, _ in low.columns()]
        highs = [rows for rows, _ in high.columns()]
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


def _coned(k, n):
    """The subset-space complex with its short-key stratum coned off, as
    relative_quotient_homology takes it."""
    cx, keys = _build_exp_with_boundary(k, n)
    return cx.cone([q for q, key in enumerate(keys) if len(key) < k])


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
    *[(lambda n=n: chain_complex(build_exp_complex(2, n)), 0, True) for n in (3, 4, 5)],
    (lambda: chain_complex(_coned(2, 3)), 0, True),
    (lambda: _from_dense(rp2_complex()), 10, True),
    (lambda: _from_dense(build_torus_complex(3, 3)), 324 + 162, True),
    (lambda: _flipped(sphere_complex()), 4, False),
    (lambda: _flipped(build_torus_complex(3, 3)), 162, False),
    pytest.param(lambda: chain_complex(build_exp_complex(3, 3)), 0, True, marks=pytest.mark.slow),
    pytest.param(lambda: chain_complex(_coned(3, 3)), 0, True, marks=pytest.mark.slow),
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


def test_nonzero_boundary_squared_is_refused():
    d1 = SparseIntMatrix.from_dense([[1, 1]])
    d2 = SparseIntMatrix.from_dense([[1], [1]])
    with pytest.raises(ValueError):
        ChainComplexZ([1, 2, 1], [d1, d2]).homology()


def test_sub_list_not_closed_under_faces_is_refused():
    # striking the edge (0, 1) without its endpoints leaves the triangles
    # over it with boundaries whose own boundaries do not cancel
    pair = _struck_pair(sphere_complex(), [[], [(0, 1)]])
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
        assert smith_normal_form(SparseIntMatrix.from_dense(m)) == dense_smith_normal_form(m)
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
        assert smith_normal_form(SparseIntMatrix.from_dense(m)) == dense_smith_normal_form(m)


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
    diag = smith_normal_form(SparseIntMatrix.from_dense(m))
    assert diag == dense_smith_normal_form(m)
    assert any(x > 1 for x in diag)


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
    (2, [[(0,), (1,)], [(0,)]], r"degenerate simplex \(0,\) in dimension 1"),
    (3, [[(0,), (1,), (2,)], [(1, 1, 2)]], r"degenerate simplex \(1, 1, 2\) in dimension 1"),
    (3, [[(0,), (1,)]], "dimension 0 must list every vertex"),
    (2, [[(0,), (5,)]], "dimension 0 must list every vertex"),
    (1, [[(0,), (0, 1)]], "dimension 0 must list every vertex"),
    (0, [], "dimension 0 must list every vertex"),
], ids=["missing-face", "unsorted-edge", "unsorted-triangle", "degenerate-edge",
        "degenerate-triangle", "short-edge", "long-edge", "too-few-vertices", "vertex-off-range",
        "edge-in-dimension-0", "empty"])
def test_simplicial_complex_refusals(vertex_count, simplices, message):
    with pytest.raises(ValueError, match=message):
        SimplicialComplex(vertex_count, simplices)


def test_simplicial_complex_lists_each_simplex_once():
    # repeats in any order and as lists or tuples: each kept once, in the
    # order first seen, except that the vertices are listed 0..n-1
    cx = SimplicialComplex(3, [[(2,), [0], (1,), (0,), (2,)], [(1, 2), [0, 1], (1, 2), (0, 1)]])
    assert cx.simplices == [[(0,), (1,), (2,)], [(1, 2), (0, 1)]]
    assert list(cx.faces[1]) == [2, 1, 1, 0]
    # the face rows follow that order; facet i drops vertex i
    cx = SimplicialComplex(3, [[(0,), (1,), (2,)], [(0, 2), (1, 2), (0, 1)], [(0, 1, 2)]])
    assert list(cx.faces[2]) == [1, 0, 2]


def _with_stratum(k, result):
    """(complex, stratum) from the build's (complex, keys): the stratum is
    the full subcomplex on the vertices whose key has fewer than k points,
    as relative_quotient_homology takes it."""
    cx, keys = result
    return cx, cx.induced({q for q, key in enumerate(keys) if len(key) < k})


def _by_key(simplices_by_dim, keys):
    """Simplices with every vertex replaced by its key, per dimension:
    the same for two numberings of one quotient."""
    return [sorted(tuple(sorted(keys[v] for v in s)) for s in ss) for ss in simplices_by_dim]


# name -> complex
FACE_CASES = {
    "rp2": rp2_complex,
    **{f"exp2-n{n}": (lambda n=n: build_exp_complex(2, n)) for n in (3, 4, 5)},
}


@pytest.mark.parametrize("name", list(FACE_CASES))
def test_face_table_matches_lookups(name):
    cx = FACE_CASES[name]()
    assert len(cx.faces) == cx.dim + 1 and not cx.faces[0]
    for d in range(1, cx.dim + 1):
        row = {f: i for i, f in enumerate(cx.simplices[d - 1])}
        assert list(cx.faces[d]) == [row[s[:i] + s[i + 1:]] for s in cx.simplices[d]
                                     for i in range(d + 1)]


def _boundaries_by_slicing(k, sub_simplices):
    """Reference for the chain complex of the pair (k, subcomplex): every
    face sliced off its simplex and looked up in a row dict of the basis
    left once sub_simplices, listed per dimension, are struck."""
    sub = [set(s) for s in sub_simplices] + [set()] * (k.dim + 1 - len(sub_simplices))
    bases = [[s for s in ss if s not in sub[d]] for d, ss in enumerate(k.simplices)]
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


def _struck_pair(k, sub_simplices):
    """The chain complex of the pair (k, subcomplex), its chains struck
    from the bases and from the boundary images, built from the reference:
    a second model of relative homology beside the cone."""
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
                                         for c, (rows, vals) in enumerate(b.columns())
                                         if rows})
                     for b in cc.boundaries]


@pytest.mark.parametrize("name", list(FACE_CASES))
def test_boundaries_match_face_slicing(name):
    cx = FACE_CASES[name]()
    assert _as_lists(chain_complex(cx)) == _boundaries_by_slicing(cx, ())


def test_chain_complex_shares_the_face_table():
    # every boundary is the complex's face table itself, not a copy, its
    # offsets stepping by the simplex width
    for cx in (sphere_complex(), build_exp_complex(2, 3), _coned(2, 3)):
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
    assert list(m.columns()) == [((2,), (5,)), ((), ()), ((0, 1, 2), (-1, 3, 7)), ((), ())]
    assert list(m.columns(b"\0\1\1\0")) == [((), ()), ((0, 1, 2), (-1, 3, 7))]
    assert m.nnz() == 4 and _dense(m) == [[0, 0, -1, 0], [0, 0, 3, 0], [5, 0, 7, 0]]
    # one width: strided slices, the values pattern shared by every column
    m = SparseIntMatrix(3, 3, array("I", [0, 1, 1, 2, 0, 2]), range(0, 7, 2), array("b", [1, -1] * 3))
    cols = list(m.columns(b"\1\0\1"))
    assert cols == [((0, 1), (1, -1)), ((0, 2), (1, -1))] and cols[0][1] is cols[1][1]
    m = SparseIntMatrix(3, 2, array("I", [0, 1, 1, 2]), range(0, 5, 2), [1, -1, 2, 3])
    assert list(m.columns()) == [((0, 1), (1, -1)), ((1, 2), (2, 3))]
    assert list(SparseIntMatrix(2, 3).columns()) == [((), ())] * 3


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
    pair = _struck_pair(cx, cx.induced(keep))
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
    """Reduce m twice, each time from a copy of the clearing mask, checking
    after each pass that its columns are unchanged; returns the invariants
    and the mask they leave, the same both times."""
    tables = (list(m.indices), list(m.indptr), list(m.values))
    out = []
    for _ in range(2):
        mask = None if clearing is None else bytearray(clearing)
        out.append((smith_normal_form(m, mask), mask))
        assert (list(m.indices), list(m.indptr), list(m.values)) == tables
    assert out[0] == out[1]
    return out[0]


def test_snf_leaves_its_input_unchanged():
    # the reduction only reads the input's flat tables, from which its
    # pivots' tuples are made; exp_2 at n=3 is a band, so its d2 is
    # injective and d1 has rank one short of its rows, reduced with and
    # without the mask d2 leaves
    d1, d2 = chain_complex(build_exp_complex(2, 3)).boundaries
    invs, mask = _snf_twice(d2, bytearray(d2.ncols))
    assert invs == [1] * d2.ncols and any(mask)
    assert _snf_twice(d1)[0] == _snf_twice(d1, mask)[0] == [1] * (d1.nrows - 1)
    # a dense matrix with torsion: non-unit columns reach the residual pass
    m = [[2, 4, 1, 0], [0, 6, 1, 3], [4, 2, 0, 9]]
    invs, _ = _snf_twice(SparseIntMatrix.from_dense(m))
    assert invs == dense_smith_normal_form(m) and invs[-1] > 1
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
    for d, (ss, table) in enumerate(zip(cx.simplices, cx.faces)):
        assert coned.simplices[d][:len(ss)] == ss
        assert coned.faces[d][:len(table)] == table
    # appended: the apex, then the cone on each simplex of L in L's order
    apex, top = cx.vertex_count, len(coned.simplices)
    added = [ss[len(old):] for ss, old in zip(coned.simplices, cx.simplices + [[]])]
    want = [[(apex,)]] + [[s + (apex,) for s in ss] for ss in cx.induced(keep)]
    assert added == want[:top] and not any(want[top:])
    validated = SimplicialComplex(coned.vertex_count, coned.simplices)
    assert validated.simplices == coned.simplices and validated.faces == coned.faces
    # a cone on a top simplex adds a dimension, whose group is 0
    got = homology(coned).groups
    want = _with_base_point(_struck_pair(cx, cx.induced(keep)).homology()).groups
    assert got[:len(want)] == want and set(got[len(want):]) <= {AbelianInvariants(0)}


def test_cone_refuses_a_facet_outside_the_stratum():
    # the face table of a tampered sphere names the edge (1, 3) as facet 0
    # of the triangle (0, 1, 2); on {0, 1, 2} the cone needs (1, 2, 4)
    cx = sphere_complex()
    assert cx.simplices[2][0] == (0, 1, 2) and cx.simplices[1][4] == (1, 3)
    assert cx.cone([0, 1, 2]).counts() == [5, 9, 7, 1]
    cx.faces[2][0] = 4
    with pytest.raises(ValueError, match=r"missing face \(1, 2, 4\) of \(0, 1, 2, 4\)"):
        cx.cone([0, 1, 2])
    assert cx.cone([0, 1]).counts() == [5, 8, 5]


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
    tops = set(t2.simplices[2])
    for g in gens:
        for s in tops:
            assert tuple(sorted(g[v] for v in s)) in tops


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_torus_swap_is_mobius_band():
    assert homology(build_symmetric_product(2, 3)) == H((1, ()), (1, ()), (0, ()))


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

    def label_fn(s):
        label = min(tuple(sorted(table[v] for v in s)) for table in lifted)
        return label, label == s

    k1, coords1, period = _sd1_barycentres(k, n)
    cx, labels = complexes._identify_after_two_subdivisions(k1, label_fn)
    return cx, [tuple(sorted(_barycenter(s, coords1, period))) for s in labels]


def _sorted_point(point):
    return tuple(sorted(point))


@pytest.mark.parametrize("k, n", [(2, 3), (2, 5), pytest.param(3, 3, marks=pytest.mark.slow)])
def test_symmetric_product_matches_orbit_minimum(k, n):
    got = _build_exp_with_boundary(k, n, _sorted_point)
    want = _symmetric_product_by_orbit_minimum(k, n)
    assert got[0].simplices == build_symmetric_product(k, n).simplices
    assert got[0].counts() == want[0].counts()
    assert sorted(got[1]) == sorted(want[1])
    assert _by_key(got[0].simplices, got[1]) == _by_key(want[0].simplices, want[1])


@pytest.mark.parametrize("n", range(3, 7))
def test_symmetric_square_is_exp2(n):
    # for pairs the sorted tuple and the underlying set determine each
    # other, so the two keys make the same complex, list for list
    sp2, e2 = build_symmetric_product(2, n), build_exp_complex(2, n)
    assert sp2.simplices == e2.simplices
    assert sp2.faces == e2.faces


def test_exp2_is_closed_band():
    e2 = build_exp_complex(2, 3)
    assert homology(e2) == H((1, ()), (1, ()), (0, ()))
    e2b = build_exp_complex(2, 4)
    assert homology(e2b) == H((1, ()), (1, ()), (0, ()))


def test_exp2_top_count_closed_form():
    # n**k * ((k+1)!)**2 top simplices, the figure the CLI's size cap uses
    for n in range(3, 7):
        assert build_exp_complex(2, n).counts()[-1] == 36 * n**2


def _assert_subcomplex(marked):
    have = [set(m) for m in marked]
    for d in range(1, len(marked)):
        for s in marked[d]:
            for i in range(d + 1):
                assert s[:i] + s[i + 1:] in have[d - 1]


def test_induced_is_full_subcomplex():
    # {0, 2} spans no edge of the square, though both are vertices
    assert circle_complex(4).induced({0, 2}) == [[(0,), (2,)], []]
    k = rp2_complex()
    for vs in ({0, 1, 2}, {0, 1, 3, 4}, {1, 2, 3, 4, 5}):
        sub = k.induced(vs)
        assert sub == [[s for s in ss if all(v in vs for v in s)] for ss in k.simplices]
        _assert_subcomplex(sub)
    assert k.induced(range(k.vertex_count)) == k.simplices
    assert k.induced(()) == [[], [], []]


def test_exp2_marked_stratum_is_singleton_circle():
    cx, marked = _with_stratum(2, _build_exp_with_boundary(2, 3))
    assert [len(m) for m in marked] == [12, 12, 0]
    _assert_subcomplex(marked)
    for d, m in enumerate(marked):
        assert set(m) <= set(cx.simplices[d])


# ---------------------------------------------------------------------------
# the orbit filter of the second subdivision
# ---------------------------------------------------------------------------

def _identify_all_chains(k1, label_fn):
    """Reference for complexes._identify_after_two_subdivisions: maps every
    chain of the second subdivision, whether or not it ends at an orbit
    representative."""
    ids, origin = _subdivision_data(k1)
    qid_by_key = {}
    qid_of_vertex = [qid_by_key.setdefault(label_fn(s)[0], len(qid_by_key)) for s in origin]
    out = [set() for _ in range(k1.dim + 1)]
    for c in _flags(k1, ids):
        q = tuple(sorted(qid_of_vertex[v] for v in c))
        if len(set(q)) != len(q):
            raise ValueError("identification degenerates a simplex")
        out[len(q) - 1].add(q)
    cx = SimplicialComplex(len(qid_by_key), [sorted(s) for s in out])
    return cx, list(qid_by_key)


def _sd1_barycentres(k, n):
    """The first subdivision of the whole k-torus on an n-grid, the
    barycentre of each torus simplex (a vertex of it) and the period."""
    k0 = build_torus_complex(k, n)
    scale = lcm(*range(1, k + 2)) ** 2
    period = n * scale
    coords0 = [tuple(x * scale for x in _grid_point(i, k, n)) for i in range(k0.vertex_count)]
    _, origin0 = _subdivision_data(k0)
    coords1 = [_barycenter(s, coords0, period) for s in origin0]
    return barycentric_subdivision(k0), coords1, period


def _is_sorted(point):
    return list(point) == sorted(point)


def _identify_whole_torus(k, n):
    """Reference for _build_exp_with_boundary: the same keys and
    representatives on the first subdivision of the whole torus, not only
    of the closure of the torus simplices with a sorted barycentre."""
    k1, coords1, period = _sd1_barycentres(k, n)

    def label_fn(s):
        bc = _barycenter(s, coords1, period)
        return tuple(sorted(set(bc))), _is_sorted(bc)

    return complexes._identify_after_two_subdivisions(k1, label_fn)


def _marked_by_masks(k, n):
    """Reference for the pair stratum of _build_exp_with_boundary, traced by
    coordinate-pair masks instead of vertex keys: each sd1 simplex of the
    whole torus gets one bit per coordinate pair, set where its barycentre's
    two coordinates agree, and a quotient simplex is marked when some chain
    of the second subdivision over it has a nonzero AND of its element
    masks.  Quotient simplices are given by their vertices' keys."""
    k1, coords1, period = _sd1_barycentres(k, n)
    ids, origin = _subdivision_data(k1)
    pairs = list(combinations(range(k), 2))
    keys = []
    masks = []
    for s in origin:
        bc = _barycenter(s, coords1, period)
        keys.append(tuple(sorted(set(bc))))
        masks.append(sum(1 << bit for bit, (i, j) in enumerate(pairs) if bc[i] == bc[j]))
    marked = [set() for _ in range(k + 1)]
    for c in _flags(k1, ids):
        m = masks[c[0]]
        for v in c[1:]:
            m &= masks[v]
        if m:
            marked[len(c) - 1].add(tuple(sorted(keys[v] for v in c)))
    return [sorted(s) for s in marked]


@pytest.mark.parametrize("n", range(3, 7))
def test_exp2_marked_stratum_matches_masks(n):
    cx, keys = _build_exp_with_boundary(2, n)
    assert _by_key(_with_stratum(2, (cx, keys))[1], keys) == _marked_by_masks(2, n)


@pytest.mark.parametrize("k, n", [(2, n) for n in range(3, 8)] + [(3, 3), (3, 4)])
def test_sorted_barycentre_iff_last_torus_simplex_sorted(k, n):
    # an sd1 simplex is a flag of torus simplices, numbered in dimension
    # order, so its last vertex is the flag's last torus simplex
    k1, coords1, period = _sd1_barycentres(k, n)
    sorted_last = 0
    for s in chain.from_iterable(k1.simplices):
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
    assert got[0].counts() == want[0].counts()
    assert sorted(got[1]) == sorted(want[1])
    assert _by_key(got[0].simplices, got[1]) == _by_key(want[0].simplices, want[1])
    assert (_by_key(_with_stratum(k, got)[1], got[1])
            == _by_key(_with_stratum(k, want)[1], want[1]))


def _quotient_data(result):
    """What two builds of one quotient share: the vertex count, the keys and
    each dimension's set of simplices; the order within a dimension is the
    order the chains were met in, which differs between the two."""
    cx, keys = result if isinstance(result, tuple) else (result, None)
    return cx.vertex_count, keys, [set(ss) for ss in cx.simplices]


@pytest.mark.parametrize("build", [
    *(lambda n=n: _build_exp_with_boundary(2, n) for n in range(3, 7)),
    *(lambda n=n: build_symmetric_product(2, n) for n in (3, 5)),
], ids=["exp2-n3", "exp2-n4", "exp2-n5", "exp2-n6", "T2-n3", "T2-n5"])
def test_orbit_filter_matches_all_chains(monkeypatch, build):
    got = _quotient_data(build())
    monkeypatch.setattr(complexes, "_identify_after_two_subdivisions", _identify_all_chains)
    assert got == _quotient_data(build())


def _off_top_keys(k1, own_vertex):
    """label_fn giving each top sd1 simplex the key of one sd1 vertex, which
    is numbered before it: off the simplex, or on it if own_vertex.  Those
    quotient ids decrease along the chains ending at a top simplex."""
    def label_fn(s):
        if len(s) == k1.dim + 1:
            others = sorted(set(range(k1.vertex_count)) - set(s))
            return ((s[0] if own_vertex else others[len(others) // 2]),), True
        return s, True
    return label_fn


@pytest.mark.parametrize("k", [circle_complex(5), rp2_complex(), build_torus_complex(2, 3)],
                         ids=["circle-n5", "rp2", "T2-n3"])
def test_sorted_insert_matches_all_chains(monkeypatch, k):
    k1 = barycentric_subdivision(k)
    insert = complexes._insert
    inserts = []

    def counting_insert(c, label):
        inserts.append(c)
        return insert(c, label)

    monkeypatch.setattr(complexes, "_insert", counting_insert)
    label_fn = _off_top_keys(k1, own_vertex=False)
    got = complexes._identify_after_two_subdivisions(k1, label_fn)
    assert inserts
    assert _quotient_data(got) == _quotient_data(_identify_all_chains(k1, label_fn))
    for identify in (complexes._identify_after_two_subdivisions, _identify_all_chains):
        with pytest.raises(ValueError, match="identification degenerates a simplex"):
            identify(k1, _off_top_keys(k1, own_vertex=True))


@pytest.mark.parametrize("seed", range(4))
def test_flags_closure_memo_matches_brute_force(seed):
    # random ends and a random labelling: appends and sorted inserts mixed,
    # and the memo only on the proper faces of the ends
    rng = random.Random(seed)
    k1 = barycentric_subdivision(rp2_complex() if seed % 2 else build_torus_complex(2, 3))
    ids, origin = _subdivision_data(k1)
    labels = dict(zip(origin, rng.sample(range(len(origin)), len(origin))))
    ends = set(rng.sample(origin, len(origin) // 5))
    want = sorted(tuple(sorted(labels[origin[v]] for v in c))
                  for c in _flags(k1, ids) if origin[c[-1]] in ends)
    assert sorted(_flags(k1, labels, ends)) == want


@pytest.mark.slow
def test_orbit_filter_matches_all_chains_exp3(monkeypatch):
    # S_3 acts freely on the 3888 top sd1 simplices, so a sixth of them are
    # representatives; 68 840 of the 407 160 chains are mapped
    counts = {"top_representatives": 0, "mapped": 0}
    identify = complexes._identify_after_two_subdivisions
    subdivided = []

    def counting_identify(k1, label_fn):
        def label(s):
            key, is_representative = label_fn(s)
            if is_representative and len(s) == k1.dim + 1:
                counts["top_representatives"] += 1
            return key, is_representative
        subdivided.append(k1)
        return identify(k1, label)

    def counting_flags(k, ids, ends=None):
        # the chains of the second subdivision, not those building the first
        for c in _flags(k, ids, ends):
            counts["mapped"] += k in subdivided
            yield c

    monkeypatch.setattr(complexes, "_identify_after_two_subdivisions", counting_identify)
    monkeypatch.setattr(complexes, "_flags", counting_flags)
    cx, keys = _build_exp_with_boundary(3, 3)
    assert counts == {"top_representatives": 648, "mapped": 68840}
    assert _by_key(_with_stratum(3, (cx, keys))[1], keys) == _marked_by_masks(3, 3)
    got = _quotient_data((cx, keys))
    monkeypatch.setattr(complexes, "_identify_after_two_subdivisions", _identify_all_chains)
    assert got == _quotient_data(_build_exp_with_boundary(3, 3))


def test_build_order_does_not_depend_on_the_hash_seed():
    # each dimension is listed in the order its chains are met, which comes
    # from iterating lists; sets are only asked for membership
    src = str(Path(complexes.__file__).resolve().parent.parent)
    code = ("from expcircle.complexes import _build_exp_with_boundary\n"
            "cx, keys = _build_exp_with_boundary(2, 3)\n"
            "print(cx.simplices, [t.tolist() for t in cx.faces], keys)")
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
           for seed in ("0", "4242")]
    cx, keys = _build_exp_with_boundary(2, 3)
    assert out[0] == out[1] == f"{cx.simplices} {[t.tolist() for t in cx.faces]} {keys}\n"


def test_asymmetric_torus_is_refused(asymmetric_torus):
    # the orbit filter is only sound for a symmetric triangulation
    with pytest.raises(ValueError, match="action does not carry simplices"):
        _build_exp_with_boundary(2, 3)


# ---------------------------------------------------------------------------
# the subset-space model (k = 3 cases are the slow ones)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_plain_permutation_quotient_differs_from_subset_space():
    # identifying tuples only up to permutation yields the symmetric product,
    # a circle-like space with boundary; the subset space needs the extra
    # collapse of repeated coordinates (compare build_exp_complex)
    sp3 = build_symmetric_product(3, 3)
    assert sp3.counts() == [2992, 18868, 31428, 15552]
    assert homology(sp3) == H((1, ()), (1, ()), (0, ()), (0, ()))


@pytest.mark.slow
def test_exp3_homology_is_sphere_n3():
    e3 = build_exp_complex(3, 3)
    assert e3.euler_characteristic() == 0
    assert homology(e3) == H((1, ()), (0, ()), (0, ()), (1, ()))


# tracemalloc peak of homology(build_exp_complex(3, 3)), build excluded, in
# bytes: 26.49 MB when each column was a dict (27.07 MB under Python 3.10),
# 13.81 MB with row and value tuples (13.85 MB under 3.10), 14.01 MB with a
# dict per pivot column, 10.36 MB with pivots on the boundary's own tuples
# (Python 3.11), which read 10.63 MB on the machine that measured the next
# figure: 6.11 MB with the boundaries sharing the complex's face tables and
# a column made a tuple only when the reduction reaches it.  The bound sits
# halfway between the last two.  tracemalloc counts Python allocations, so
# the figure repeats.
HOMOLOGY_PEAK_BOUND = 8_370_000


@pytest.mark.slow
def test_exp3_homology_peak_memory():
    e3 = build_exp_complex(3, 3)
    tracemalloc.start()
    try:
        h = homology(e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.betti == [1, 0, 0, 1]
    assert peak < HOMOLOGY_PEAK_BOUND, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.slow
def test_exp3_homology_is_sphere_n4():
    e3 = build_exp_complex(3, 4)
    assert e3.counts() == [6712, 43576, 73728, 36864]
    assert homology(e3) == H((1, ()), (0, ()), (0, ()), (1, ()))


@pytest.mark.slow
def test_exp3_marked_stratum_is_exp2():
    # the degenerate triples are the pair space, simplex for simplex in count
    _, marked = _with_stratum(3, _build_exp_with_boundary(3, 3))
    assert [len(m) for m in marked] == build_exp_complex(2, 3).counts() + [0]
    assert [len(m) for m in marked] == [168, 492, 324, 0]
    _assert_subcomplex(marked)


@pytest.mark.slow
def test_relative_quotient_matches_oracle():
    assert relative_quotient_homology(3) == rp3_collapse_oracle()


@pytest.mark.parametrize("k, n", [(2, 3), (2, 4), pytest.param(3, 3, marks=pytest.mark.slow)])
def test_coned_stratum_matches_struck_pair(k, n):
    # two models of the collapsed space: the stratum coned off, and struck
    # from the chains with the base point put back.  exp_2 with exp_1
    # collapsed is RP^2, whose Z/2 reaches the dense residual; exp_3 with
    # exp_2 collapsed is the projective oracle's space
    cx, keys = _build_exp_with_boundary(k, n)
    short = [q for q, key in enumerate(keys) if len(key) < k]
    coned = homology(cx.cone(short))
    struck = _with_base_point(_struck_pair(cx, cx.induced(short)).homology())
    assert coned == struck
    if k == 2:
        assert coned == H((1, ()), (0, (2,)), (0, ()))
    else:
        assert coned == rp3_collapse_oracle() == relative_quotient_homology(n)


def test_rp3_oracle_table():
    oracle = rp3_collapse_oracle()
    assert oracle.betti == [1, 0, 1, 1]
    assert all(t == () for t in oracle.torsion)
