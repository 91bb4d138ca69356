import random
from itertools import combinations
from math import gcd, lcm, prod

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
    _dense_snf,
    _flags,
    _grid_point,
    _subdivision_data,
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
    relative_chain_complex,
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
# top-down reduction with clearing
# ---------------------------------------------------------------------------

def _reference_homology(cc: ChainComplexZ) -> HomologyResult:
    """Homology with every boundary reduced on its own by the dense routine."""
    invs = [_dense_snf([[b.cols.get(c, {}).get(r, 0) for c in range(b.ncols)]
                        for r in range(b.nrows)]) for b in cc.boundaries]
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
    pair = relative_chain_complex(cx, cx.induced(keep))
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
    clearing = set()
    assert smith_normal_form(d2, clearing) == [1]
    assert clearing == set()  # its one pivot is not a unit
    assert smith_normal_form(d1, clearing) == [1]
    assert clearing == {0}
    assert ChainComplexZ([1, 2, 1], [d1, d2]).homology() == H((0, ()), (0, ()), (0, ()))
    with pytest.raises(ValueError):
        smith_normal_form([[1]], set())


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
    cx, marked = _build_exp_with_boundary(2, 3)
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


def _marked_by_masks(k, n):
    """Reference for the pair stratum of _build_exp_with_boundary, traced by
    coordinate-pair masks instead of vertex keys: each sd1 simplex gets one
    bit per coordinate pair, set where its barycentre's two coordinates
    agree, and a quotient simplex is marked when some chain of the second
    subdivision over it has a nonzero AND of its element masks.  Quotient
    vertices are numbered in first-seen order of their keys, as the build
    numbers them."""
    k0 = build_torus_complex(k, n)
    scale = lcm(*range(1, k + 2)) ** 2
    period = n * scale
    coords0 = [tuple(x * scale for x in _grid_point(i, k, n)) for i in range(k0.vertex_count)]
    _, origin0 = _subdivision_data(k0)
    coords1 = [_barycenter(s, coords0, period) for s in origin0]
    k1 = barycentric_subdivision(k0)
    ids, origin = _subdivision_data(k1)
    pairs = list(combinations(range(k), 2))
    qid_by_key = {}
    qid_of_vertex = []
    masks = []
    for s in origin:
        bc = _barycenter(s, coords1, period)
        qid_of_vertex.append(qid_by_key.setdefault(tuple(sorted(set(bc))), len(qid_by_key)))
        masks.append(sum(1 << bit for bit, (i, j) in enumerate(pairs) if bc[i] == bc[j]))
    marked = [set() for _ in range(k + 1)]
    for c in _flags(k1, ids):
        m = masks[c[0]]
        for v in c[1:]:
            m &= masks[v]
        if m:
            marked[len(c) - 1].add(tuple(sorted(qid_of_vertex[v] for v in c)))
    return [sorted(s) for s in marked]


@pytest.mark.parametrize("n", range(3, 7))
def test_exp2_marked_stratum_matches_masks(n):
    assert _build_exp_with_boundary(2, n)[1] == _marked_by_masks(2, n)


def _quotient_data(result):
    cx, marked = result if isinstance(result, tuple) else (result, None)
    return cx.vertex_count, cx.simplices, marked


def _reflection(n):
    return [(-i) % n for i in range(n)]


@pytest.mark.parametrize("build", [
    *(lambda n=n: _build_exp_with_boundary(2, n) for n in range(3, 7)),
    lambda: quotient_complex(circle_complex(8), [_reflection(8)]),
    lambda: quotient_complex(circle_complex(5), [_reflection(5)]),
    *(lambda n=n: quotient_complex(build_torus_complex(2, n), coordinate_permutation_action(2, n))
      for n in (3, 5)),
], ids=["exp2-n3", "exp2-n4", "exp2-n5", "exp2-n6", "circle-n8", "circle-n5", "T2-n3", "T2-n5"])
def test_orbit_filter_matches_all_chains(monkeypatch, build):
    got = _quotient_data(build())
    monkeypatch.setattr(complexes, "_identify_after_two_subdivisions", _identify_all_chains)
    assert got == _quotient_data(build())


@pytest.mark.slow
def test_orbit_filter_matches_all_chains_exp3(monkeypatch):
    # S_3 acts freely on the 3888 top sd1 simplices, so a sixth of them are
    # representatives; 68 840 of the 407 160 chains are mapped
    counts = {"top_representatives": 0, "mapped": 0}
    identify = complexes._identify_after_two_subdivisions

    def counting_identify(k1, label_fn):
        def label(s):
            key, is_representative = label_fn(s)
            if is_representative and len(s) == k1.dim + 1:
                counts["top_representatives"] += 1
            return key, is_representative
        return identify(k1, label)

    def counting_flags(k, ids, ends=None):
        for c in _flags(k, ids, ends):
            counts["mapped"] += ends is not None
            yield c

    monkeypatch.setattr(complexes, "_identify_after_two_subdivisions", counting_identify)
    monkeypatch.setattr(complexes, "_flags", counting_flags)
    got = _quotient_data(_build_exp_with_boundary(3, 3))
    assert counts == {"top_representatives": 648, "mapped": 68840}
    assert got[2] == _marked_by_masks(3, 3)
    monkeypatch.setattr(complexes, "_identify_after_two_subdivisions", _identify_all_chains)
    assert got == _quotient_data(_build_exp_with_boundary(3, 3))


def test_asymmetric_torus_is_refused(asymmetric_torus):
    # the orbit filter is only sound for a symmetric triangulation
    with pytest.raises(ValueError, match="action does not carry simplices"):
        _build_exp_with_boundary(2, 3)


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
def test_exp3_homology_is_sphere_n4():
    e3 = build_exp_complex(3, 4)
    assert e3.counts() == [6712, 43576, 73728, 36864]
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
