import pytest
from hypothesis import settings

from expcircle import complexes

# The same examples on every run, and no per-example deadline: machine speed
# drifts by tens of percent, so a deadline would fail on load, not on a bug.
settings.register_profile("expcircle", derandomize=True, deadline=None, database=None)
settings.load_profile("expcircle")


@pytest.fixture
def asymmetric_torus(monkeypatch):
    """Replace the 2-torus by one whose square at grid (0, 1) is cut along the
    other diagonal: still a triangulation of the torus, but swapping the
    coordinates carries that square's triangles off the complex."""
    build = complexes.build_torus_complex

    def flipped(k, n):
        assert k == 2
        a, b, c, d = (complexes._grid_index(p, n) for p in ((0, 1), (1, 1), (0, 2), (1, 2)))
        cut = {tuple(sorted(t)) for t in ((a, b, d), (a, c, d))}
        tops = [t for t in build(k, n).simplices[2] if t not in cut]
        assert len(cut) == 2 and len(tops) == 2 * n * n - 2
        return complexes.SimplicialComplex.from_maximal(tops + [(a, b, c), (b, c, d)])

    monkeypatch.setattr(complexes, "build_torus_complex", flipped)
