import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from expcircle.complexes import AbelianInvariants
from expcircle.groups import (
    _NAME,
    _canonical_relator,
    _invert,
    FiniteGroup,
    GroupHom,
    Presentation,
    PushoutData,
    abelianization,
    coset_enumeration,
    count_homs,
    MAX_WORD_LENGTH,
    format_presentation,
    format_word,
    parse_presentation,
    parse_word,
    pushout,
    pushout_band_piece,
    pushout_complement,
    pushout_exp3,
    symmetric_group,
    tietze_simplify,
)


def P(text):
    return parse_presentation(text)


def cyclic_group(n):
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# words and the text format
# ---------------------------------------------------------------------------

def test_parse_word():
    gens = ["s", "t"]
    assert parse_word("s t^-1", gens) == (1, -2)
    assert parse_word("s^3 t^-2", gens) == (1, 1, 1, -2, -2)
    assert parse_word("s s^-1", gens) == ()
    assert parse_word("1", gens) == ()
    for text in ("x", "s^x", "s^", "s^+2", "s 1", "", "s^2^2"):
        with pytest.raises(ValueError):
            parse_word(text, gens)


def test_parse_word_reads_the_empty_word_as_printed():
    # format_word writes the empty word as 1, which once read as an
    # unexpected token
    for gens in (["a"], ["s", "t"], []):
        assert format_word((), gens) == "1"
        assert parse_word(format_word((), gens), gens) == ()


def test_parse_word_refuses_a_long_word_before_expanding_it():
    # a^1000000000000 once asked for a tuple of 10^12 letters
    with pytest.raises(ValueError, match="longer than"):
        parse_presentation("gens: a; rels: a^1000000000000")
    with pytest.raises(ValueError, match="longer than"):
        parse_word(f"a^{MAX_WORD_LENGTH // 2} a^-{MAX_WORD_LENGTH // 2 + 1}", ["a"])
    assert parse_word(f"a^{MAX_WORD_LENGTH}", ["a"]) == (1,) * MAX_WORD_LENGTH


def test_presentation_roundtrip():
    p = P("gens: s t; rels: s^3 t^-2, s t^-1")
    assert p.generators == ("s", "t")
    assert p.relators == ((1, 1, 1, -2, -2), (1, -2))
    again = parse_presentation(format_presentation(p))
    assert again.generators == p.generators and again.relators == p.relators
    free = P("gens: a b; rels:")
    assert free.relators == ()


@st.composite
def printable_presentations(draw):
    # names as Presentation allows them, digits and underscores included
    names = draw(st.lists(st.from_regex(_NAME, fullmatch=True), min_size=1, max_size=4,
                          unique=True))
    letters = st.sampled_from([x for g in range(1, len(names) + 1) for x in (g, -g)])
    return Presentation(names, draw(st.lists(st.lists(letters, max_size=12), max_size=4)))


@given(printable_presentations())
def test_presentation_text_round_trip(p):
    assert parse_presentation(format_presentation(p)) == p


def test_readme_example_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library interchange format", 1)[1]
    line = re.search(r"^gens: .*$", section, re.M)[0]
    assert format_presentation(parse_presentation(line)) == line


def test_relator_list_splits_on_commas():
    p = P("gens: b c; rels: c^2 b c^-2 b^-1")
    assert p.relators == ((2, 2, 1, -2, -2, -1),)
    p = P("gens: a b c; rels: a b a^-1 b^-1, c^2 a^-1")
    assert len(p.relators) == 2
    assert P("gens: ; rels: ") == Presentation(())
    for text in ("gens: a; rels: a,", "gens: a; rels: a, , a", "rels: a; gens: a", "gens: a"):
        with pytest.raises(ValueError):
            P(text)


def test_presentation_refuses_names_that_are_not_strings():
    # the name pattern once met a non-string in re, which raised TypeError
    for names in ([1], ["a", None], [b"a"], [["a"]]):
        with pytest.raises(ValueError, match="bad generator name"):
            Presentation(names)
    with pytest.raises(ValueError, match="bad generator name"):
        Presentation(["a b"])
    with pytest.raises(ValueError, match="duplicate generator names"):
        Presentation(["a", "a"])


def test_relators_are_reduced():
    p = Presentation(["a"], [(1, -1)])
    assert p.relators == ()
    p = Presentation(["a", "b"], [(2, 1, -2)])  # cyclic reduction
    assert p.relators == ((1,),)


def test_presentation_cannot_be_changed_in_place():
    # with list fields, appending a relator changed the hash of a
    # presentation held in a set and got past the letter check
    p = Presentation(["a"])
    held = {p}
    for fields in (p.generators, p.relators):
        with pytest.raises(AttributeError):
            fields.append((1,))
    assert p in held
    with pytest.raises(AttributeError):
        p.relators = [(5,)]
    # a new presentation with that relator is checked on every path
    for build in (lambda: Presentation(["a"], [(5,)]),
                  lambda: Presentation._make((["a"], [(5,)])),
                  lambda: p._replace(relators=[(5,)])):
        with pytest.raises(ValueError, match="out of range in relator"):
            build()
    assert abelianization(p) == AbelianInvariants(1)


def test_relator_letters_checked_before_reduction():
    # letters that cancel are still refused when they name no generator
    for w in ((5, -5), (0, 0), (1, 2, -2, -1), (-2, 1, 2)):
        with pytest.raises(ValueError, match="out of range in relator"):
            Presentation(["a"], [w])


def test_image_letters_checked_before_reduction():
    source, target = Presentation(["a"]), Presentation(["x"])
    hom = GroupHom(source, target, [(1, -1)])
    assert hom.images == ((),)
    # a tuple of words: an image cannot be swapped past the checks
    with pytest.raises(TypeError):
        hom.images[0] = (7,)
    for w in ((7, -7), (0, 0), (1, -2, 2)):
        with pytest.raises(ValueError, match="out of range in image"):
            GroupHom(source, target, [w])


def test_letters_that_are_not_ints_are_refused():
    # 1.0 == 0 and abs(1.0) > 1 are both false, so a float letter once
    # passed, and repr then failed on it as a tuple index; True is 1
    source, target = Presentation(["x"]), Presentation(["a"])
    for w in ((1.0,), (1.0, 1.0), (-1.0,), (True,), (1, False), (1, -1.0)):
        with pytest.raises(ValueError, match="out of range in relator"):
            Presentation(["a"], [w])
        with pytest.raises(ValueError, match="out of range in image"):
            GroupHom(source, target, [w])


@st.composite
def small_presentations(draw):
    n = draw(st.integers(0, 4))
    letters = st.sampled_from([x for g in range(1, n + 1) for x in (g, -g)])
    words = st.lists(letters, max_size=7) if n else st.just([])
    return Presentation([f"g{i}" for i in range(n)], draw(st.lists(words, max_size=4)))


@given(small_presentations())
def test_canonical_relator_is_the_least_rotation(p):
    # the reference compares every rotation, not only those that start
    # with a least letter
    for w in p.relators:
        rotations = [u[k:] + u[:k] for u in (w, _invert(w)) for k in range(len(u))]
        assert _canonical_relator(w) == min(rotations)


# ---------------------------------------------------------------------------
# pushouts
# ---------------------------------------------------------------------------

def test_pushout_data_are_their_text_forms():
    # the fixed inputs are written as words; the comments beside them give
    # the text form, which parses to the same presentations
    torus = P("gens: a b; rels: a b a^-1 b^-1")
    exp3, band, complement = pushout_exp3(), pushout_band_piece(), pushout_complement()
    assert exp3.corner == complement.corner == band.left.target == torus
    assert complement.right.target == P("gens: t u; rels: t^2 u t^-2 u^-1")


def test_pushout_free_example():
    corner = Presentation(["x"])
    a = Presentation(["a"])
    b = Presentation(["b"])
    data = PushoutData(corner, GroupHom(corner, a, [(1, 1)]), GroupHom(corner, b, [(1, 1, 1)]))
    out = pushout(data)
    assert out == P("gens: a b; rels: a^2 b^-3")


def test_pushout_relator_count():
    for data in (pushout_exp3(), pushout_band_piece(), pushout_complement()):
        out = pushout(data)
        expect = (len(data.left.target.relators)
                  + len(data.right.target.relators)
                  + len(data.corner.generators))
        assert len(out.relators) == expect


def test_pushout_main_gluing():
    out = pushout(pushout_exp3())
    assert out == P("gens: s t; rels: s^3 t^-2, s t^-1")


def test_pushout_band_piece():
    out = pushout(pushout_band_piece())
    assert out == P("gens: a b c; rels: a b a^-1 b^-1, a c^-2")


def test_pushout_name_collision():
    corner = Presentation(["x"])
    a = Presentation(["g"])
    b = Presentation(["g"])
    out = pushout(PushoutData(corner, GroupHom(corner, a, [(1,)]), GroupHom(corner, b, [(1,)])))
    assert len(set(out.generators)) == 2


def test_hom_validation():
    corner = Presentation(["a", "b"], [parse_word("a b a^-1 b^-1", ["a", "b"])])
    free = Presentation(["s"])
    hom = GroupHom(corner, free, [(1, 1, 1), (1,)])
    assert hom.images == ((1, 1, 1), (1,))
    with pytest.raises(ValueError):
        # a -> s, b -> s s^-1 makes [a, b] map to a nontrivial free word? no:
        # any two words into a free group on one generator commute, so use a
        # rank-2 free target where images genuinely fail to commute
        GroupHom(corner, Presentation(["x", "y"]), [(1,), (2,)])


_COMMUTATOR = "gens: x y; rels: x y x^-1 y^-1"
_TORUS_C = "gens: a b c; rels: a b a^-1 b^-1"
_TORUS = "gens: a b; rels: a b a^-1 b^-1"


@pytest.mark.parametrize("source, target, images, accepted", [
    (_COMMUTATOR, _TORUS_C, ["a b", "a b"], True),
    (_COMMUTATOR, _TORUS_C, ["a", "b"], True),
    (_COMMUTATOR, _TORUS_C, ["b", "a^-1"], True),
    (_COMMUTATOR, _TORUS_C, ["b", "a"], True),
    ("gens: x; rels: x^3", "gens: t; rels: t^3", ["t"], True),
    # [a, c] is not trivial in <a, b, c | [a, b]> (108 homs into S3 against
    # 48 for Z^3), though its abelianization is unchanged by it
    (_COMMUTATOR, _TORUS_C, ["a", "c"], False),
    (_COMMUTATOR, _TORUS_C, ["a", "b c"], False),
    # a^2 b a^-2 b^-1 is trivial in Z^2, but it is neither the empty word
    # nor a rotation of a target relator or of its inverse
    (_COMMUTATOR, _TORUS, ["a^2", "a b"], False),
    ("gens: x; rels: x^2", _TORUS, ["a"], False),
    ("gens: x; rels: x^2", "gens: a b; rels: b a b^-1 a^-1", ["a"], False),
    ("gens: x; rels: x^2", "gens: t; rels: t^3", ["t"], False),
    (_COMMUTATOR, "gens: a b; rels:", ["a", "b"], False),
], ids=["trivial", "relator", "rotation", "inverse", "z3-x3", "commutator-a-c",
        "commutator-a-bc", "torus-a2-ab", "torus-x2", "torus-inv-x2", "z3-x2", "free-x-y"])
def test_hom_into_a_target_not_known_abelian_accepts_only_its_relators(source, target,
                                                                       images, accepted):
    # GroupHom takes no target to be abelian, free or not: into every target
    # a relator image is accepted only when it freely reduces to nothing or
    # is a target relator up to rotation and inversion
    source, target = P(source), P(target)
    words = [parse_word(w, target.generators) for w in images]
    if accepted:
        assert GroupHom(source, target, words).images == tuple(words)
    else:
        with pytest.raises(ValueError, match="is neither trivial nor a target relator"):
            GroupHom(source, target, words)


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------

def test_tietze_trivial_relator():
    res = tietze_simplify(Presentation(["a"], [(1, -1)]))
    assert res.complete
    assert res.presentation.relators == ()
    assert res.presentation.generators == ("a",)


def test_tietze_band_piece():
    out = tietze_simplify(pushout(pushout_band_piece()))
    assert out.complete
    assert out.presentation == P("gens: b c; rels: c^2 b c^-2 b^-1")


def test_tietze_complement_chain():
    start = P("gens: s t u; rels: t^2 u t^-2 u^-1, s^3 t^-2, s u^-1")
    out = tietze_simplify(start)
    assert out.complete
    assert out.presentation == P("gens: t u; rels: u^3 t^-2")


@pytest.mark.parametrize("build", [pushout_exp3, pushout_band_piece, pushout_complement])
def test_tietze_result_carries_the_abelianization_of_the_pushouts(build):
    p = pushout(build())
    out = tietze_simplify(p)
    assert out.abelianization == abelianization(p) == abelianization(out.presentation)


@given(small_presentations())
def test_tietze_result_carries_the_abelianization(p):
    out = tietze_simplify(p)
    assert out.abelianization == abelianization(p) == abelianization(out.presentation)


def test_tietze_preserves_abelianization():
    cases = [
        P("gens: s t u; rels: t^2 u t^-2 u^-1, s^3 t^-2, s u^-1"),
        P("gens: a b c; rels: a b a^-1 b^-1, a c^-2"),
        P("gens: s t; rels: s^3 t^-2, s t^-1"),
        P("gens: a b; rels: a^2, b^3, a b a^-1 b^-1"),
    ]
    for p in cases:
        q = tietze_simplify(p).presentation
        assert abelianization(p) == abelianization(q)
        assert len(q.generators) <= len(p.generators)


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------

def test_coset_enumeration_trivial_group():
    cert = coset_enumeration(P("gens: s t; rels: s^3 t^-2, s t^-1"), coset_limit=100)
    assert cert.conclusive and cert.order == 1


def test_coset_enumeration_cyclic():
    cert = coset_enumeration(P("gens: a; rels: a^5"), coset_limit=100)
    assert cert.conclusive and cert.order == 5
    assert cert.verify(P("gens: a; rels: a^5"))


def test_coset_enumeration_known_orders():
    # the table is the regular representation: its columns generate a
    # transitive free action, so closure at order n is self-certifying
    cases = [
        ("gens: a; rels: a^5", 5),
        ("gens: a b; rels: a^3, b^2, a b a b", 6),  # dihedral, order 6
        ("gens: a b; rels: a^2, b^2, a b a^-1 b^-1", 4),  # Klein four-group
        ("gens: s t; rels: s^3 t^-2, s t^-1", 1),
        ("gens: a b; rels: a^4, b^2 a^-2, b a b^-1 a", 8),  # quaternions
    ]
    for text, order in cases:
        p = P(text)
        cert = coset_enumeration(p, coset_limit=500)
        assert cert.conclusive and cert.order == order
        assert cert.verify(p)
        perms = _table_permutations(cert)
        assert len(_close_permutations(perms)) == order


def _table_permutations(cert):
    n = len(cert.table)
    ngens = len(cert.table[0]) // 2
    return [tuple(cert.table[c][2 * d] for c in range(n)) for d in range(ngens)]


def _close_permutations(perms):
    if not perms:
        return {()}
    n = len(perms[0])
    ident = tuple(range(n))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in perms:
                gh = tuple(h[g[i]] for i in range(n))
                if gh not in group:
                    group.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return group


def test_coset_enumeration_inconclusive_on_infinite():
    cert = coset_enumeration(P("gens: s t; rels: s^3 t^-2"), coset_limit=10000)
    assert not cert.conclusive
    assert cert.order is None
    cert = coset_enumeration(P("gens: a b; rels: a^3"), coset_limit=100)
    assert not cert.conclusive
    with pytest.raises(ValueError):
        coset_enumeration(P("gens: a; rels: a^2"), coset_limit=0)


# ---------------------------------------------------------------------------
# abelianization and hom counting
# ---------------------------------------------------------------------------

def test_abelianization():
    assert abelianization(P("gens: s t; rels: s^3 t^-2")) == AbelianInvariants(1, ())
    assert abelianization(P("gens: s t; rels: s^3 t^-2, s t^-1")) == AbelianInvariants(0, ())
    assert abelianization(P("gens: a; rels: a^4")) == AbelianInvariants(0, (4,))
    # no relators give the Smith form no rows: the group is free abelian on
    # its generators, the trivial group when there are none
    assert abelianization(P("gens: a b; rels:")) == AbelianInvariants(2, ())
    assert abelianization(Presentation([], [])) == AbelianInvariants(0, ())


def test_count_homs_s3():
    s3 = symmetric_group(3)
    # brute-force case analysis: t of order dividing 2 forces s^3 = 1
    # (4 * 3 pairs); a 3-cycle t makes t^2 another 3-cycle, never a cube
    assert count_homs(P("gens: s t; rels: s^3 t^-2"), s3) == 12
    assert count_homs(P("gens: a; rels:"), s3) == 6
    assert count_homs(P("gens: a; rels: a"), s3) == 1
    assert count_homs(Presentation([], []), s3) == 1


def test_count_homs_invariant_under_tietze():
    targets = [symmetric_group(3), cyclic_group(8), cyclic_group(5)]
    pres = [
        P("gens: s t u; rels: t^2 u t^-2 u^-1, s^3 t^-2, s u^-1"),
        P("gens: a b c; rels: a b a^-1 b^-1, a c^-2"),
        P("gens: s t; rels: s^3 t^-2, s t^-1"),
    ]
    for p in pres:
        q = tietze_simplify(p).presentation
        for g in targets:
            assert count_homs(p, g) == count_homs(q, g)


def test_finite_group_tables():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert s3.table[s3.identity][3] == 3
    z5 = cyclic_group(5)
    assert z5.order == 5
    assert z5.inverse[2] == 3
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(ValueError, match="no identity"):
        FiniteGroup([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="no inverse"):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="outside"):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 7]])
    # identity 0 and every row holds it, but (1*1)*2 = 2 and 1*(1*2) = 1
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup([[0, 1, 2], [1, 0, 0], [2, 0, 1]])


def test_finite_group_refuses_entries_that_are_not_ints():
    # 0.0 in range(1) holds, so a float once got past the range check and
    # failed as a list index; a bool is no element index either
    for table in ([[0.0]], [[0, 1], [1, 0.0]], [[False]], [[0, 1], [1, False]]):
        with pytest.raises(ValueError, match="not an int"):
            FiniteGroup(table)


# an order-5 loop: identity 0, an inverse in every row and a Latin square,
# but (1*1)*2 = 2 and 1*(1*2) = 4
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


def test_associativity_check_refuses_a_latin_square_loop():
    elems = range(5)
    assert all(sorted(row) == list(elems) for row in LOOP_5)
    assert all(sorted(LOOP_5[x][y] for x in elems) == list(elems) for y in elems)
    assert not _associative(LOOP_5)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(LOOP_5)


def test_associativity_check_covers_every_middle_element():
    # every triple with 1 in the middle associates, and 1 generates {0, 1}
    # only, so a check on one generator passes; (1*2)*2 = 0 but 1*(2*2) = 1
    t = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 1], [3, 2, 0, 1]]
    assert all(t[t[x][1]][z] == t[x][t[1][z]] for x in range(4) for z in range(4))
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(t)


def _associative(t):
    """The reference: (xy)z = x(yz) over all triples."""
    elems = range(len(t))
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in elems for y in elems for z in elems)


def _cayley_tables():
    """Tables of the groups of order 1 to 6, identity 0."""
    cyclic = [[[(i + j) % n for j in range(n)] for i in range(n)] for n in range(1, 7)]
    klein = [[i ^ j for j in range(4)] for i in range(4)]
    return cyclic + [klein, symmetric_group(3).table]


@st.composite
def tables_with_identity_and_inverses(draw):
    """A relabelled group table, perhaps with two entries of one row
    swapped, or a random table: each has an identity and an inverse in
    every row."""
    kind = draw(st.sampled_from(["group", "swapped", "random"]))
    if kind == "random":
        n = draw(st.integers(1, 6))
        t = [list(range(n))] + [
            [x] + draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
            for x in range(1, n)
        ]
        for x in range(1, n):
            t[x][draw(st.integers(1, n - 1))] = 0
    else:
        t = [row[:] for row in draw(st.sampled_from(_cayley_tables()))]
        n = len(t)
        if kind == "swapped" and n > 2:
            x = draw(st.integers(1, n - 1))
            i, j = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
            t[x][i], t[x][j] = t[x][j], t[x][i]
    # relabel by a permutation, so the identity is not always 0
    perm = draw(st.permutations(range(n)))
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[t[x][y]]
    return out


@settings(max_examples=300)
@given(tables_with_identity_and_inverses())
def test_associativity_check_agrees_with_the_triple_check(t):
    try:
        FiniteGroup(t)
        accepted = True
    except ValueError as exc:
        assert "not associative" in str(exc)
        accepted = False
    assert accepted == _associative(t)


# ---------------------------------------------------------------------------
# the full gluing pipeline
# ---------------------------------------------------------------------------

def test_pipeline_full_space_is_simply_connected():
    out = pushout(pushout_exp3())
    cert = coset_enumeration(out, coset_limit=100)
    assert cert.conclusive and cert.order == 1


def test_pipeline_band_piece():
    out = tietze_simplify(pushout(pushout_band_piece()))
    assert out.presentation == P("gens: b c; rels: c^2 b c^-2 b^-1")


def test_pipeline_complement_is_trefoil_group():
    out = tietze_simplify(pushout(pushout_complement()))
    assert out.presentation == P("gens: t u; rels: u^3 t^-2")
    assert abelianization(out.presentation) == AbelianInvariants(1, ())
    s3 = symmetric_group(3)
    assert count_homs(out.presentation, s3) == 12
    assert count_homs(P("gens: a; rels:"), s3) == 6  # the unknot group differs
