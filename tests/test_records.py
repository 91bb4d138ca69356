"""The result records are namedtuple subclasses with no instance dict.  A
copy or a pickle gives back the same record, and _make and _replace build
through the same checks as the constructor."""

import copy
import pickle

import pytest

from expcircle.complexes import AbelianInvariants, HomologyResult
from expcircle.config import (
    FiniteSubset,
    SampledLoop,
    TripleCoalescencePath,
    core_circle,
    pair_coalescence_limit,
    triple_coalescence_path,
)
from expcircle.groups import (
    GroupHom,
    Presentation,
    PushoutData,
    coset_enumeration,
    pushout,
    pushout_complement,
    tietze_simplify,
)
from expcircle.moebius import BoundaryPoint

_DATA = pushout_complement()
RECORDS = [
    AbelianInvariants(1, (2,)),
    HomologyResult((AbelianInvariants(1), AbelianInvariants(0, (2,)))),
    pair_coalescence_limit(BoundaryPoint.from_real(0.5)),
    triple_coalescence_path(BoundaryPoint.from_real(0.0), BoundaryPoint.from_real(1.0)),
    core_circle(16),
    _DATA.left,
    _DATA,
    tietze_simplify(pushout(_DATA)),
    coset_enumeration(Presentation(["a"], [(1, 1, 1)])),
]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
def test_record_is_an_immutable_tuple(rec):
    assert isinstance(rec, tuple) and len(rec) == len(rec._fields)
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    assert repr(rec).startswith(f"{type(rec).__name__}({rec._fields[0]}=")


# a presentation is a checked namedtuple too, with its own repr
PRESENTATION = Presentation(["a", "b"], [(1, 2, -1, -2)])


def test_presentation_keeps_its_repr():
    assert repr(PRESENTATION) == "Presentation('gens: a b; rels: a b a^-1 b^-1')"


@pytest.mark.parametrize("rec", RECORDS + [PRESENTATION], ids=lambda rec: type(rec).__name__)
def test_record_copies_and_pickles(rec):
    # subsets and boundary points compare by identity, so a deep copy or an
    # unpickled record holding them is compared through its repr; every
    # other record, presentations included, compares by value
    assert copy.copy(rec) == rec
    for twin in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec) and repr(twin) == repr(rec)
        if not isinstance(rec, (SampledLoop, TripleCoalescencePath)):
            assert twin == rec
    assert type(rec)._make(rec) == rec
    assert rec._replace() == rec


def test_abelian_invariants_and_homology_read_as_before():
    assert str(AbelianInvariants(1, (2,))) == "Z + Z/2"
    assert str(AbelianInvariants(0)) == "0"
    h = HomologyResult((AbelianInvariants(1), AbelianInvariants(0, (2,))))
    assert h == HomologyResult((AbelianInvariants(1, ()), AbelianInvariants(0, (2,))))
    assert h != HomologyResult((AbelianInvariants(1), AbelianInvariants(0, (3,))))
    assert (h.betti, h.torsion, str(h)) == ([1, 0], [(), (2,)], "H_0 = Z; H_1 = Z/2")


def test_presentations_compare_and_hash_by_value():
    # generators and relators, read as tuples, are the whole presentation,
    # so the records holding one compare and hash by value too
    p = pushout(_DATA)
    assert tietze_simplify(p) == tietze_simplify(p)
    assert hash(tietze_simplify(p)) == hash(tietze_simplify(p))
    twin = pickle.loads(pickle.dumps(_DATA))
    assert twin == _DATA and hash(twin) == hash(_DATA) and hash(twin.left) == hash(_DATA.left)
    a3 = Presentation(["a"], [(1, 1, 1)])
    same = Presentation(("a",), [(1, 1, 1), (1, -1)])  # the relator a a^-1 reduces away
    assert a3 == same and hash(a3) == hash(same)
    assert a3 != Presentation(["b"], [(1, 1, 1)]) and a3 != Presentation(["a"], [(1, 1)])
    assert a3 != "gens: a; rels: a^3"


def test_tietze_result_holds_the_abelianization():
    out = tietze_simplify(pushout(_DATA))
    assert out._fields == ("presentation", "complete", "steps", "abelianization")
    assert out.abelianization == AbelianInvariants(1, ())
    for twin in (copy.deepcopy(out), pickle.loads(pickle.dumps(out)), out._replace()):
        assert twin.abelianization == out.abelianization


def test_sampled_loop_checks_closing_on_every_path():
    open_path = [FiniteSubset([0.0]), FiniteSubset([1.0])]
    loop = core_circle(16)
    assert SampledLoop() == SampledLoop(subsets=()) and SampledLoop._fields == ("subsets",)
    # every loop is closed: an open path is refused on every path
    for build in (lambda: SampledLoop(open_path),
                  lambda: SampledLoop._make((open_path,)),
                  lambda: loop._replace(subsets=open_path)):
        with pytest.raises(ValueError, match="closed loop must end where it starts"):
            build()


def test_pushout_data_checks_the_corner_on_every_path():
    other = Presentation(["a", "b"])  # free, unlike the corner <a, b | [a, b]>
    for build in (lambda: PushoutData(other, _DATA.left, _DATA.right),
                  lambda: PushoutData._make((other, _DATA.left, _DATA.right)),
                  lambda: _DATA._replace(corner=other)):
        with pytest.raises(ValueError, match="must start at the corner group"):
            build()


def test_pushout_data_compares_the_corner_by_value():
    # an equal copy of the corner is the same group; presentations compare
    # by value, so the homomorphisms start at it
    corner = copy.deepcopy(_DATA.corner)
    assert corner is not _DATA.corner
    for build in (lambda: PushoutData(corner, _DATA.left, _DATA.right),
                  lambda: PushoutData._make((corner, _DATA.left, _DATA.right)),
                  lambda: _DATA._replace(corner=corner)):
        assert build() == _DATA
    with pytest.raises(ValueError, match="must start at the corner group"):
        PushoutData(Presentation(["a", "b"]), _DATA.left, _DATA.right)


def test_group_hom_checks_images_on_every_path():
    hom = _DATA.left
    for images, message in (([(1,)], "one image word per source generator"),
                            ([(2,), (1,)], "out of range in image")):
        for build in (lambda: GroupHom(hom.source, hom.target, images),
                      lambda: GroupHom._make((hom.source, hom.target, images)),
                      lambda: hom._replace(images=images)):
            with pytest.raises(ValueError, match=message):
                build()
    # the relator check runs too, and the three fields are the whole record
    # (namedtuple's _replace raises ValueError before 3.13, TypeError since)
    free2 = Presentation(["x", "y"])
    with pytest.raises(ValueError, match="neither trivial nor a target relator"):
        hom._replace(target=free2, images=[(1,), (2,)])
    with pytest.raises((TypeError, ValueError), match="unexpected field names"):
        hom._replace(verified=False)
    assert GroupHom._make((hom.source, hom.target, [(1, 1, 1, -1, 1), (1,)])) == hom
    assert pickle.loads(pickle.dumps(hom)) == hom
    # copy and pickle rebuild through the constructor, so they refuse a hom
    # that bypassed it
    bad = tuple.__new__(GroupHom, (hom.source, free2, ((1,), (2,))))
    for rebuild in (copy.copy, lambda h: pickle.loads(pickle.dumps(h))):
        with pytest.raises(ValueError, match="neither trivial nor a target relator"):
            rebuild(bad)
