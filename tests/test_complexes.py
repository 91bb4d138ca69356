import random
from itertools import combinations
from math import gcd, prod

import pytest

from expcircle.complexes import (
    AbelianInvariants,
    ChainComplexZ,
    HomologyResult,
    SimplicialComplex,
    SparseIntMatrix,
    _build_exp_with_boundary,
    _dense_snf,
    barycentric_subdivision,
    build_exp_complex,
    build_torus_complex,
    chain_complex,
    circle_complex,
    complex_from_text,
    complex_to_text,
    coordinate_permutation_action,
    homology,
    quotient_complex,
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

def test_snf_examples():
    assert smith_normal_form([[2]]) == [2]
    assert smith_normal_form([[1, 1], [1, 1]]) == [1]
    # gcd(3, -2) = 1, the extended-gcd oracle
    assert smith_normal_form([[3, -2]]) == [1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []


def test_snf_divisibility_chain():
    diag = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


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
        diag = smith_normal_form(m)
        for k in range(1, 4):
            g = 0
            for rows in combinations(range(3), k):
                for cols in combinations(range(4), k):
                    g = gcd(g, _det([[m[r][c] for c in cols] for r in rows]))
            assert g == (prod(diag[:k]) if k <= len(diag) else 0)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0


def test_sparse_mul_matches_dense():
    rng = random.Random(53)
    for _ in range(50):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(m)] for _ in range(k)]
        prod = SparseIntMatrix.from_dense(a).mul(SparseIntMatrix.from_dense(b))
        assert prod.cols == SparseIntMatrix.from_dense(_matmul(a, b)).cols


def test_nonzero_boundary_squared_is_refused():
    d1 = SparseIntMatrix.from_dense([[1, 1]])
    d2 = SparseIntMatrix.from_dense([[1], [1]])
    with pytest.raises(ValueError):
        ChainComplexZ([1, 2, 1], [d1, d2]).homology()


SNF_ENTRIES = (0, 0, 0, 1, -1, 2, 3, -4, 6)


def test_snf_sparse_matches_dense():
    # small matrices with non-unit entries reach the residual path, where a
    # column must be cleared off pivot rows that appeared after its sweep
    rng = random.Random(37)
    for _ in range(300):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = [[rng.choice(SNF_ENTRIES) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(SparseIntMatrix.from_dense(m)) == _dense_snf(m)


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
    assert diag == _dense_snf(m)
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

def test_quotient_by_trivial_group():
    k = rp2_complex()
    q = quotient_complex(k, [list(range(k.vertex_count))])
    assert homology(q) == homology(k)


def test_quotient_circle_reflection_is_arc():
    n = 8
    k = circle_complex(n)
    reflection = [(-i) % n for i in range(n)]
    q = quotient_complex(k, [reflection])
    assert homology(q) == H((1, ()), (0, ()))


def test_quotient_torus_swap_is_mobius_band():
    t2 = build_torus_complex(2, 3)
    q = quotient_complex(t2, coordinate_permutation_action(2, 3))
    assert homology(q) == H((1, ()), (1, ()), (0, ()))


def test_quotient_rejects_non_simplicial():
    k = circle_complex(5)
    with pytest.raises(ValueError):
        quotient_complex(k, [[2, 1, 0, 3, 4]])  # maps the edge (2,3) off the complex
    with pytest.raises(ValueError):
        quotient_complex(k, [[0, 0, 1, 2, 3]])  # not a permutation


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


def test_exp2_marked_stratum_is_singleton_circle():
    cx, marked = _build_exp_with_boundary(2, 3)
    assert [len(m) for m in marked] == [12, 12, 0]
    _assert_subcomplex(marked)
    for d, m in enumerate(marked):
        assert set(m) <= set(cx.simplices[d])


def test_text_roundtrip():
    k = rp2_complex()
    text = complex_to_text(k)
    k2 = complex_from_text(text)
    assert k2.simplices == k.simplices
    assert "#" in text
    with pytest.raises(ValueError):
        complex_from_text("2 0 1\n")  # wrong vertex count for dimension
    with pytest.raises(ValueError):
        complex_from_text("# only a comment\n")


# ---------------------------------------------------------------------------
# the subset-space model (k = 3 cases are the slow ones)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_plain_permutation_quotient_differs_from_subset_space():
    # identifying tuples only up to permutation yields the symmetric product,
    # a circle-like space with boundary; the subset space needs the extra
    # collapse of repeated coordinates (compare build_exp_complex)
    t3 = build_torus_complex(3, 3)
    q = quotient_complex(t3, coordinate_permutation_action(3, 3))
    assert homology(q) == H((1, ()), (1, ()), (0, ()), (0, ()))


@pytest.mark.slow
def test_exp3_homology_is_sphere_n3():
    e3 = build_exp_complex(3, 3)
    assert e3.euler_characteristic() == 0
    assert homology(e3) == H((1, ()), (0, ()), (0, ()), (1, ()))


@pytest.mark.slow
def test_exp3_marked_stratum_is_exp2():
    # the degenerate triples are the pair space, simplex for simplex in count
    _, marked = _build_exp_with_boundary(3, 3)
    assert [len(m) for m in marked] == build_exp_complex(2, 3).counts() + [0]
    assert [len(m) for m in marked] == [168, 492, 324, 0]
    _assert_subcomplex(marked)


@pytest.mark.slow
def test_relative_quotient_matches_oracle():
    assert relative_quotient_homology(3) == rp3_collapse_oracle()


def test_rp3_oracle_table():
    oracle = rp3_collapse_oracle()
    assert oracle.betti == [1, 0, 1, 1]
    assert all(t == () for t in oracle.torsion)
