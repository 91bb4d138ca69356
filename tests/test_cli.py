import gc
import hashlib
import importlib
import json
import math
import subprocess
import sys
import tracemalloc
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from expcircle import cli, complexes, config
from expcircle.cli import main


def run_cli(*args):
    """Invoke the CLI in-process, capturing stdout.

    Returns (exit_code, stdout_text)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def run_proc(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "expcircle", *args],
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_coord_singleton():
    code, out = run_cli("coord", "0")
    assert code == 0
    assert out == '{"tag":"C1","alpha":0}\n'


def test_coord_pair():
    code, out = run_cli("coord", "0", str(math.pi))
    assert code == 0
    rec = json.loads(out)
    assert rec["tag"] == "C2"
    assert rec["phi"] == pytest.approx(math.pi / 2, abs=1e-9)


def test_coord_triple_exceptional():
    a = 2 * math.pi / 3
    code, out = run_cli("--tol", "1e-6", "coord", "0", f"{a:.15f}", f"{2 * a:.15f}")
    assert code == 0
    rec = json.loads(out)
    assert rec["tag"] == "C3"
    assert rec["z"]["re"] == pytest.approx(0.5, abs=1e-6)
    assert rec["z"]["im"] == pytest.approx(math.sqrt(3) / 2, abs=1e-6)
    assert rec["exceptional"] is True
    assert len(rec["orbit"]) == 3


# stdout of coord for a pair, a triple, an equally spaced (exceptional)
# triple and a near-coincident triple that merges to a pair, byte for byte;
# the floats come from glibc's libm on x86-64, like tests/test_chart_bits.py
COORD_BYTES = {
    ("0.3", "1.1"): '{"tag":"C2","phi":0.4,"theta":2.84159265359}\n',
    ("0.3", "2.0", "4.0"):
        '{"tag":"C3","z":{"re":0.308674623765,"im":1.0766754812},"theta":5.42477796077,'
        '"exceptional":false,"orbit":['
        '{"re":0.308674623765,"im":1.0766754812,"theta":5.42477796077},'
        '{"re":0.753948078989,"im":0.858243762389,"theta":2.84159265359},'
        '{"re":0.422270889746,"im":0.657647945587,"theta":1.14159265359}]}\n',
    ("0", "2.0943951023931953", "4.1887902047863905"):
        '{"tag":"C3","z":{"re":0.5,"im":0.866025403784},"theta":1.0471975512,'
        '"exceptional":true,"orbit":['
        '{"re":0.5,"im":0.866025403784,"theta":5.23598775598},'
        '{"re":0.5,"im":0.866025403784,"theta":3.14159265359},'
        '{"re":0.5,"im":0.866025403784,"theta":1.0471975512}]}\n',
    ("0", "2e-9", "3"): '{"tag":"C2","phi":1.5,"theta":3.14159265359}\n',
}


@pytest.mark.parametrize("points", COORD_BYTES, ids=" ".join)
def test_coord_bytes(points):
    assert run_cli("coord", *points) == (0, COORD_BYTES[points])


# sha256 of stdout for the other commands, byte for byte; any change to a
# record (a value, a key, the key order) or to a CSV row changes its digest
GOLDEN_SHA256 = {
    "--eps 0.1 --samples 720 knot":
        "e9bf85a48648d53d893c84e88fad4723c2e6707c5fec42529ae21116fed32917",
    "--samples 720 knot --core":
        "d886bc9e7afb747eb6c94f92ac9665c7e3cf185d3460f9b680c125007854b2ec",
    "--format json knot":
        "5c1a15a51933d020738db5321d6d30fb51dec3036c3a322d07c2a26856541d2c",
    "--samples 720 --format json knot --core":
        "e08504578549f5b4a09e7d575b843553775e09135fe18e30c8146ea4402aceba",
    "pi1 exp3": "730adb0c2b081114a0f7a6f932d016ec7147af1afe6b1ed4421fd61d37dabb8e",
    "pi1 Bprime": "06c2066ab05f6317a5a180a97f954f452ac8c8fac640dcacabd9a469b0ce3764",
    "pi1 complement": "98e7080629be875b09a0764606066a0c849b4c9a9da56789603ffe70e0740cda",
    "--mesh-n 3 homology 2":
        "35db7ccf8bea50616ad4a1f1a5750d3fa2194acb2e2617083d6c0fb35c519b9a",
    "--mesh-n 3 homology 3":
        "a52a9eefad4603301aee20703f9df5354cf6236e973d5d9ba08a434da7d0d281",
    "--mesh-n 3 homology 3 --relative":
        "fa9f4a9933207984fea5de46cf0ea60734c2c5b469c09d2fa4fb85fb7af4e409",
    # grids besides n = 3, on which the fundamental domain closes up differently
    "--mesh-n 4 homology 3":
        "a47f67e965ab5135dec9697417efddfd83743248a6da64e8c44aa92d29bf7641",
    "--mesh-n 4 homology 3 --relative":
        "df6382c191456fdaf00c3b6c7396082e8b8c5755a319398ab2a66d1608e7aac9",
    "--mesh-n 5 homology 2":
        "c47de20fbff7586e997b082b79ceab2c8ac8ea78d3aa2d4239f8de36c2fc261a",
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.slow) if "homology 3" in case else case
    for case in GOLDEN_SHA256
])
def test_golden_bytes(case):
    code, out = run_cli(*case.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[case]


def test_pi1_parses_no_text(monkeypatch):
    # the pushout data and the expected presentations are words, so the
    # pi1 cases keep their digests with the text parsers refusing to run
    from expcircle import groups

    def refuse(*args):
        raise AssertionError("pi1 parsed text")

    monkeypatch.setattr(groups, "parse_word", refuse)
    monkeypatch.setattr(groups, "parse_presentation", refuse)
    monkeypatch.setattr(cli, "parse_presentation", refuse, raising=False)
    for case in ("pi1 exp3", "pi1 Bprime", "pi1 complement"):
        code, out = run_cli(*case.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[case]


def test_pi1_text_reads_the_same_in_the_library_and_the_benchmark_checks(monkeypatch):
    # benchmarks/checks.py reads the printed presentations with its own short
    # parser; it and groups.parse_presentation must agree on every pi1 record
    from expcircle import groups

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    checks = importlib.import_module("checks")
    for case in ("exp3", "Bprime", "complement"):
        code, out = run_cli("pi1", case)
        assert code == 0
        rec = json.loads(out)
        for field in ("assembled", "simplified"):
            p = groups.parse_presentation(rec[field])
            gens, rels = checks.parse_presentation(rec[field])
            assert (p.generators, p.relators) == (tuple(gens), tuple(map(tuple, rels)))


def test_knot_builds_no_finite_subset(monkeypatch):
    # the band curve, the core and the singleton track are built by
    # config._pair_loop, which sets the slots without FiniteSubset.__init__
    single = config.loop_a(config.FiniteSubset([0.3]), samples=720)

    def refuse(self, *args):
        raise AssertionError("FiniteSubset.__init__ called")

    monkeypatch.setattr(config.FiniteSubset, "__init__", refuse)
    for case in ("--eps 0.1 --samples 720 knot", "--samples 720 knot --core"):
        code, out = run_cli(*case.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[case]
    assert config.winding_diagnostic(single) == (2, 3)
    with pytest.raises(AssertionError, match="called"):  # the guard guards
        config.FiniteSubset([0.3])


# tracemalloc peak of the whole homology 3 op at n=3, in bytes (Python
# 3.11): 20.14 MB absolute and 20.06 MB relative while the simplicial
# complex and a dict per pivot column were alive through the reduction,
# 13.74 and 13.83 MB once the complex is dropped after its chain complex is
# built and pivots share the boundary's tuples (13.61 and 13.78 MB on the
# machine that measured the next pair), and 10.84 and 10.66 MB with the
# boundaries sharing the complex's face tables, where the build is the op's
# peak, then 10.20 and 9.55 MB with face tables by position.  With the
# build letting go of each stage before it validates the quotient they read
# 8.81 and 8.22 MB, and 5.43 and 4.79 MB with packed simplices, the d o d
# check in chunks and unreduced unit pivots kept as column indices (in a
# fresh process; 4.71 MB absolute once a first op has run).  Then the bound
# sat halfway between the last two absolute figures.  With the reduced
# pivots in one column store the build sets a fresh op's peak: 4.88 MB
# absolute and relative, against 5.26 and 5.36 MB at its parent on the same
# machine (4.71 MB on both once a first op has run).  The bound sits halfway
# between the last two absolute figures.
CLI_HOMOLOGY_PEAK_BOUND = 5_068_000


@pytest.mark.slow
@pytest.mark.parametrize("extra", [(), ("--relative",)], ids=["absolute", "relative"])
def test_homology_3_peak_memory(extra):
    tracemalloc.start()
    try:
        code, out = run_cli("--mesh-n", "3", "homology", "3", *extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rec = json.loads(out)
    assert code == 0
    assert rec["match"] if extra else rec["betti"] == [1, 0, 0, 1]
    assert peak < CLI_HOMOLOGY_PEAK_BOUND, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.slow
def test_repeated_relative_ops_retain_nothing():
    # a benchmark child's peak RSS rises over its first rounds of this op and
    # then holds: the allocator keeps freed memory for reuse, and no op keeps
    # data, since the traced size after each op is the first op's.  A full
    # collection first empties the interpreter's free lists, which hold about
    # 1 MB of freed objects after an op and count as traced
    sizes = []
    tracemalloc.start()
    try:
        for _ in range(3):
            code, out = run_cli("--mesh-n", "3", "homology", "3", "--relative")
            assert code == 0 and json.loads(out)["match"]
            del out
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(sizes) - min(sizes) < 64 * 1024, sizes


def test_coord_charts_a_triple_once(monkeypatch):
    calls = []
    triple_matrix = config._triple_matrix

    def counting(*pairs):
        calls.append(pairs)
        return triple_matrix(*pairs)

    monkeypatch.setattr(config, "_triple_matrix", counting)
    code, out = run_cli("coord", "0.3", "2.0", "4.0")
    assert code == 0 and len(json.loads(out)["orbit"]) == 3
    assert len(calls) == 1


def test_coord_too_many_points():
    code, _, err = run_proc("coord", "0", "1", "2", "3")
    assert code == 2
    assert b"at most 3" in err


def test_coord_csv_rejected():
    code, _, err = run_proc("--format", "csv", "coord", "0")
    assert code == 2


def test_input_error_is_usage_error(monkeypatch, capsys):
    def refuse(subset):
        raise ValueError("cannot chart")

    monkeypatch.setattr(cli, "exp3_coord", refuse)
    assert main(["coord", "0", "1", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot chart\n"


def test_non_finite_input_is_usage_error():
    for args in (("coord", "nan"), ("coord", "0", "inf"), ("coord", "-inf"),
                 ("--tol", "nan", "coord", "0"), ("--eps", "inf", "knot"), ("--eps", "-inf", "knot")):
        code, out, err = run_proc(*args)
        assert code == 2
        assert out == b""
        assert b"not a finite number" in err
        assert b"Traceback" not in err


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("fail, message", [
    ("dd", "boundary of boundary is nonzero"),
    ("identification", "identification degenerates a simplex"),
    ("symmetry", "action does not carry simplices to simplices"),
])
def test_homology_verification_failure_exits_1(monkeypatch, request, capsys, fail, message,
                                               relative):
    if fail == "dd":
        monkeypatch.setattr(complexes.ChainComplexZ, "check_boundary_squared", lambda self: False)
    elif fail == "identification":
        # the second subdivision names every sd1 simplex alike, so its first
        # edge degenerates
        subdivide, calls = complexes._subdivide, []

        def one_name(k, names, ends):
            calls.append(None)
            return subdivide(k, repeat(0) if len(calls) == 2 else names, ends)

        monkeypatch.setattr(complexes, "_subdivide", one_name)
    else:
        request.getfixturevalue("asymmetric_torus")
    if relative:
        # the relative pipeline on the small exp2 complex: the failures are
        # the same, the build is quicker
        build = complexes._build_exp_with_boundary
        monkeypatch.setattr(complexes, "_build_exp_with_boundary", lambda k, n: build(2, n))
    args = ["homology", "3", "--relative"] if relative else ["homology", "2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("relative, fails", [(False, False), (False, True), (True, True)],
                         ids=["absolute", "absolute-refused", "relative-refused"])
def test_homology_pauses_the_gc_and_restores_it(monkeypatch, capsys, enabled, relative, fails):
    # the cyclic GC is off while the op builds and reduces, and the caller's
    # state is back afterwards, also when the build raises and the op exits 1
    seen = []

    def build(k, n):
        seen.append(gc.isenabled())
        if fails:
            raise ValueError("identification degenerates a simplex")
        return complexes.build_exp_model(k, n)

    monkeypatch.setattr(cli, "relative_quotient_homology" if relative else "build_exp_model",
                        (lambda n: build(3, n)) if relative else build)
    args = ["homology", "3", "--relative"] if relative else ["homology", "2"]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        code = main(args)
        after = gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()
    assert (seen, after) == ([False], enabled)
    captured = capsys.readouterr()
    assert code == (1 if fails else 0)
    assert (captured.out == "") == fails
    assert captured.err == ("error: identification degenerates a simplex\n" if fails else "")


@given(st.lists(st.floats(), min_size=1, max_size=4))
def test_coord_never_raises(values):
    # any float, finite or not, gives a chart record or a usage error
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["coord", *map(str, values)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"{c} in output"))
    else:
        assert out.getvalue() == ""


def test_coord_near_coincident_triple():
    code, out = run_cli("coord", "0", "2e-9", "3")
    assert code == 0
    assert json.loads(out)["tag"] in ("C2", "C3")


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_knot_csv_output():
    code, out = run_cli("--eps", "0.1", "--samples", "360", "knot")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,angle1,angle2,phi,theta"
    assert lines[-1] == "windings: (2, 3)"
    assert len(lines) == 1 + 361 + 1  # header, samples 0..360, summary
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == pytest.approx(math.pi / 2 - 0.1, abs=1e-9)


def test_knot_core_windings(monkeypatch):
    # the core needs no band check, so a JSON run charts no sample
    def refuse(s):
        raise AssertionError("a JSON core run charted a sample")

    monkeypatch.setattr(cli, "c2_coord", refuse)
    code, out = run_cli("--samples", "360", "--format", "json", "knot", "--core")
    assert code == 0
    rec = json.loads(out)
    assert rec["windings"] == [1, 0]


def test_knot_json_format():
    code, out = run_cli("--eps", "0.05", "--samples", "360", "--format", "json", "knot")
    assert code == 0
    rec = json.loads(out)
    assert rec["windings"] == [2, 3]
    assert rec["eps"] == 0.05


def test_knot_small_eps_is_refused_or_banded(capsys):
    # a curve too close to the core to be told from it is refused; none may
    # pass for the core's windings or fail the band check
    for eps in ("1e-12", "1e-10", "5e-10", "1e-9", "2e-9", "3e-9"):
        code = main(["--eps", eps, "--format", "json", "knot"])
        out, err = capsys.readouterr()
        assert code in (0, 2), (eps, err)
        if code == 0:
            assert json.loads(out)["windings"] == [2, 3], eps
        else:
            assert out == ""
            assert err.startswith("error: ")
    # a negative eps in exponent form reaches the same gate, not argparse's
    assert main(["--eps", "-1e-3", "knot"]) == 2
    assert capsys.readouterr().err.startswith("error: eps must lie in")


def _refuse_work(*args, **kwargs):
    raise AssertionError("size cap checked after work started")


@pytest.mark.parametrize("args", [
    ("--mesh-n", "50", "homology", "2"),
    ("--mesh-n", "6", "homology", "3"),
    ("--mesh-n", "6", "homology", "3", "--relative"),
    ("--samples", "100000000", "knot"),
    ("homology", "2", "--relative"),
])
def test_size_caps_are_usage_errors(monkeypatch, capsys, args):
    for name in ("build_exp_model", "relative_quotient_homology", "boundary_torus_curve"):
        monkeypatch.setattr(cli, name, _refuse_work)
    assert main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_size_cap_admits_exp3_at_n5(monkeypatch):
    # the cap is checked, then the build is swapped for a small one
    calls = []
    build = cli.build_exp_model

    def small_exp(k, n):
        calls.append((k, n))
        return build(2, 3)

    monkeypatch.setattr(cli, "build_exp_model", small_exp)
    code, out = run_cli("--mesh-n", "5", "homology", "3")
    assert code == 0
    assert calls == [(3, 5)]
    assert json.loads(out)["n"] == 5


def test_knot_bad_samples_is_usage_error():
    code, _, err = run_proc("--samples", "4", "knot")
    assert code == 2


def test_bad_tolerance_is_usage_error():
    # "-1e-9" reaches the tolerance gate as the flag's value, not as an
    # option string that leaves --tol without its argument
    for tol in ("0", "-1e-9"):
        code, out, err = run_proc("--tol", tol, "coord", "0")
        assert (code, out) == (2, b"")
        assert b"error: tolerance must be positive" in err


@pytest.mark.parametrize("points", [("-1e-3",), ("1", "-2E+0"), ("-.5e1", "-7")], ids=" ".join)
def test_negative_angles_in_exponent_form(points, capsys):
    # "--" makes every later argument a positional; without it a negative
    # number in exponent form must still be read as an angle
    assert main(["coord", *points]) == 0
    out = capsys.readouterr().out
    assert (main(["coord", "--", *points]), capsys.readouterr().out) == (0, out)


def test_homology_k2():
    code, out = run_cli("--mesh-n", "3", "homology", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["betti"] == [1, 1, 0]
    assert rec["torsion"] == [[], [], []]
    assert rec["euler"] == 0
    assert rec["boundary_check"] is True


@pytest.mark.slow
def test_homology_2_at_the_size_cap():
    # the largest model the cap admits, 47**2 * 36 = 79 524 top simplices;
    # its 39 856 vertices take 16-bit fields in a packed simplex
    code, out = run_cli("--mesh-n", "47", "homology", "2")
    rec = json.loads(out)
    assert code == 0
    assert rec["counts"] == [39856, 119380, 79524] and rec["euler"] == 0
    assert rec["betti"] == [1, 1, 0] and rec["torsion"] == [[], [], []]


def test_homology_bad_k():
    code, _, err = run_proc("homology", "4")
    assert code == 2
    code, _, err = run_proc("--mesh-n", "2", "homology", "2")
    assert code == 2


def test_homology_relative_needs_k3():
    code, out, err = run_proc("homology", "2", "--relative")
    assert code == 2
    assert out == b""
    assert err.startswith(b"usage: ")
    assert err.endswith(b"expcircle: error: relative mode needs k = 3\n")


def test_pi1_exp3():
    code, out = run_cli("pi1", "exp3")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["order"] == 1
    assert rec["certificate"]["conclusive"] is True


def test_pi1_bprime():
    code, out = run_cli("pi1", "Bprime")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["matches_expected"] is True


def test_pi1_complement():
    code, out = run_cli("pi1", "complement")
    assert code == 0
    rec = json.loads(out)
    cert = rec["certificate"]
    assert cert["abelianization"] == "Z"
    assert cert["homs_to_S3"] == 12
    assert cert["homs_to_S3_unknot"] == 6
    assert cert["distinguishes_unknot"] is True
    assert rec["simplified"] == "gens: t u; rels: u^3 t^-2"


@pytest.mark.parametrize("case, glue, certificate", [
    ("exp3", "pushout_band_piece", {"order": None, "conclusive": False, "cosets": None}),
    ("Bprime", "pushout_exp3", {"matches_expected": False}),
    ("complement", "pushout_band_piece", {"matches_expected": False, "abelianization": "Z + Z"}),
], ids=["exp3-inconclusive", "Bprime-mismatch", "complement-mismatch"])
def test_pi1_with_the_wrong_gluing_exits_1(monkeypatch, case, glue, certificate):
    # cmd_pi1 looks its gluing function up on cli per call, so each case runs
    # on another case's data: its certificate must fail, and the record is
    # still printed whole
    from expcircle import groups

    monkeypatch.setattr(cli, {"exp3": "pushout_exp3", "Bprime": "pushout_band_piece",
                              "complement": "pushout_complement"}[case], getattr(groups, glue))
    code, out = run_cli("pi1", case)
    assert code == 1
    rec = json.loads(out)
    assert list(rec) == ["case", "assembled", "simplified", "certificate"]
    assert rec["case"] == case
    assert rec["assembled"] == groups.format_presentation(groups.pushout(getattr(groups, glue)()))
    groups.parse_presentation(rec["simplified"])
    assert certificate.items() <= rec["certificate"].items()


def test_out_file(tmp_path):
    target = tmp_path / "knot.csv"
    case = "--eps 0.1 --samples 720 knot"
    code, out = run_cli("--out", str(target), *case.split())
    assert code == 0
    assert out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_SHA256[case]


def test_determinism_bytes():
    cases = [
        ("coord", "0.3", "1.1"),
        ("coord", "0.2", "2.2", "4.4"),
        ("--eps", "0.1", "--samples", "360", "knot"),
        ("pi1", "complement"),
        ("--mesh-n", "3", "homology", "2"),
    ]
    for case in cases:
        c1, out1, err1 = run_proc(*case)
        c2, out2, err2 = run_proc(*case)
        assert c1 == c2 == 0
        assert out1 == out2
        assert err1 == err2 == b""


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    # dataclasses brings inspect, ast, dis and tokenize into every start,
    # so the records are namedtuples, and the Smith form reads a column's
    # lowest row with max, so heapq stays out too; -S keeps out what site
    # and the .pth files it runs would import
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import expcircle.cli; "
            "print(sorted({'dataclasses', 'inspect', 'heapq'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_benchmark_tracer_wraps_and_restores_its_names(monkeypatch):
    # benchmarks/tracing.py wraps library functions by attribute name, so a
    # renamed or deleted name would otherwise fail only a traced benchmark
    # run; every name it patches must exist, and restore() must put back
    # the very object it replaced
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracing = importlib.import_module("tracing")
    owners = (cli, complexes, complexes.ChainComplexZ, config)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer(lambda *a: None)
    try:
        tracing.install(tracer, cli, complexes, config)
        during = [dict(vars(owner)) for owner in owners]
    finally:
        tracer.restore()
    patched = set()
    for owner, old, new in zip(owners, before, during):
        for attr, obj in new.items():
            if obj is not old.get(attr):
                assert obj.__wrapped__ is old[attr]
                patched.add((owner.__name__, attr))
    assert {("expcircle.complexes", "chain_complex"),
            ("expcircle.complexes", "relative_chain_complex"),
            ("expcircle.complexes", "smith_normal_form"),
            ("ChainComplexZ", "check_boundary_squared"),
            ("ChainComplexZ", "homology"),
            ("expcircle.cli", "boundary_torus_curve"),
            ("expcircle.cli", "winding_diagnostic"),
            ("expcircle.cli", "c2_coord"),
            ("expcircle.config", "frame")} <= patched
    assert [dict(vars(owner)) for owner in owners] == before
    # the wrapped relative_chain_complex is only another name for the one
    # chain-complex constructor
    assert complexes.relative_chain_complex is complexes.chain_complex
