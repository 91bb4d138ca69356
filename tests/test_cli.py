import json
import math
import subprocess
import sys

import pytest

from expcircle import cli
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
    for args in (("coord", "nan"), ("coord", "0", "inf"), ("--tol", "nan", "coord", "0"),
                 ("--eps", "inf", "knot")):
        code, out, err = run_proc(*args)
        assert code == 2
        assert out == b""
        assert b"not a finite number" in err
        assert b"Traceback" not in err


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


def test_knot_core_windings():
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


def _refuse_work(*args, **kwargs):
    raise AssertionError("size cap checked after work started")


@pytest.mark.parametrize("args", [
    ("--mesh-n", "50", "homology", "2"),
    ("--mesh-n", "6", "homology", "3"),
    ("--mesh-n", "6", "homology", "3", "--relative"),
    ("--samples", "100000000", "knot"),
])
def test_size_caps_are_usage_errors(monkeypatch, capsys, args):
    for name in ("build_exp_complex", "relative_quotient_homology", "boundary_torus_curve"):
        monkeypatch.setattr(cli, name, _refuse_work)
    assert main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_size_cap_admits_exp3_at_n5(monkeypatch):
    # the cap is checked, then the build is swapped for a small one
    calls = []
    build = cli.build_exp_complex

    def small_exp(k, n):
        calls.append((k, n))
        return build(2, 3)

    monkeypatch.setattr(cli, "build_exp_complex", small_exp)
    code, out = run_cli("--mesh-n", "5", "homology", "3")
    assert code == 0
    assert calls == [(3, 5)]
    assert json.loads(out)["n"] == 5


def test_knot_bad_samples_is_usage_error():
    code, _, err = run_proc("--samples", "4", "knot")
    assert code == 2


def test_bad_tolerance_is_usage_error():
    code, _, err = run_proc("--tol", "0", "coord", "0")
    assert code == 2
    code, _, err = run_proc("--tol", "-1e-9", "coord", "0")
    assert code == 2


def test_homology_k2():
    code, out = run_cli("--mesh-n", "3", "homology", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["betti"] == [1, 1, 0]
    assert rec["torsion"] == [[], [], []]
    assert rec["euler"] == 0
    assert rec["boundary_check"] is True


def test_homology_bad_k():
    code, _, err = run_proc("homology", "4")
    assert code == 2
    code, _, err = run_proc("--mesh-n", "2", "homology", "2")
    assert code == 2


def test_homology_relative_needs_k3():
    code, _, err = run_proc("homology", "2", "--relative")
    assert code == 2


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
    assert "s^3 t^-2" in rec["simplified"] or "u^3 t^-2" in rec["simplified"]


def test_out_file(tmp_path):
    target = tmp_path / "coord.json"
    code, out = run_cli("--out", str(target), "coord", "1.5")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["tag"] == "C1"


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
