import json
from types import SimpleNamespace

import pytest

from fareyslice import (GeneratorParams, Poly, Slope, conjecture, farey_polynomial, oracle,
                        pleating, serialize)
from fareyslice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_word_command(capsys):
    code, out, _ = run(capsys, "word", "--slope", "3/8")
    assert code == 0
    assert out.strip() == "yXYxYXyxYxyXyxYX"


def test_word_json(capsys):
    code, out, _ = run(capsys, "word", "--slope", "1/2", "--format", "json")
    data = json.loads(out)
    assert data == {"length": 4, "slope": "1/2", "word": "yxYX"}


def test_poly_command(capsys):
    code, out, _ = run(capsys, "poly", "--slope", "2/3", "--ring", "parabolic")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [2, -1, -2, -1]
    assert data["slope"] == "2/3"


def test_poly_numeric(capsys):
    code, out, _ = run(capsys, "poly", "--slope", "1/2", "--ring", "numeric(3,3)")
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "numeric(3,3)"
    assert len(data["coeffs"]) == 3
    # The label written is the label read back.
    slope, label, poly = serialize.parse_polynomial(out)
    assert (slope, label) == (Slope(1, 2), "numeric(3,3)")
    assert poly == farey_polynomial(Slope(1, 2), GeneratorParams(3, 3))


def test_slice_takes_a_numeric_ring_label(capsys):
    code, out, _ = run(capsys, "slice", "--qmax", "8", "--ring", "numeric(3,4)")
    assert code == 0
    assert out == serialize.roots_csv(pleating.slice_cloud(8, GeneratorParams(3, 4)))


def test_homog_command(capsys):
    code, out, _ = run(capsys, "homog", "--slope", "1/2")
    data = json.loads(out)
    assert data["coeffs"] == [-6, 0, 1]


def test_closed_form_command(capsys):
    code, out, _ = run(capsys, "closed-form", "--q", "2", "--z", "5")
    data = json.loads(out)
    assert data["method"] == "closed"
    assert abs(data["value"][0] - 27) < 1e-9  # 2 + 25
    code, out, _ = run(capsys, "closed-form", "--q", "3", "--z", "4")
    data = json.loads(out)
    assert data["method"] == "recurrence-fallback"


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--qmax", "6")
    assert code == 0
    assert "all slopes agree" in out
    assert "FAIL" not in out


def test_verify_and_bench_report_a_route_mismatch(capsys, monkeypatch):
    # A generic oracle wrong at 1/2 only: verify fails that slope alone,
    # and the gate of either benchmark path stops there, before any timing.
    farey = oracle.farey_polynomial
    monkeypatch.setattr(oracle, "farey_polynomial",
                        lambda s, ring: farey(Slope(1, 3) if s == Slope(1, 2) else s, ring))
    code, out, _ = run(capsys, "verify", "--qmax", "4")
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == ["FAIL 1/2"]
    assert out.splitlines()[-1] == "1 mismatches (q <= 4)"
    for path in ("left", "fibonacci"):
        code, out, err = run(capsys, "bench", "--path", path, "--size", "5")
        assert code == 2 and out == "", path
        assert "computation failed" in err and "disagree at 1/2" in err, path


def test_slice_command_csv(capsys, tmp_path):
    target = tmp_path / "cloud.csv"
    code, _, _ = run(capsys, "slice", "--qmax", "3", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "re,im,p,q,residual"
    assert len(lines) == 1 + sum(s.q for s in __import__("fareyslice").enumerate_farey(3))


def test_slice_command_svg(capsys, tmp_path):
    target = tmp_path / "cloud.svg"
    code, _, _ = run(capsys, "slice", "--qmax", "4", "--format", "svg",
                     "--out", str(target))
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and "<circle" in body


def test_cusp_path_command(capsys, tmp_path):
    target = tmp_path / "path.csv"
    code, _, _ = run(
        capsys, "cusp-path", "--cf", "0,1", "--periodic", "1",
        "--depth", "5", "--out", str(target),
    )
    assert code == 0
    assert len(target.read_text().strip().splitlines()) > 5


def test_cusp_path_depth_zero_prints_only_the_header(capsys):
    code, out, _ = run(capsys, "cusp-path", "--cf", "0,1", "--periodic", "1", "--depth", "0")
    assert code == 0
    assert out == "re,im,p,q,residual\n"


def test_conjecture_command(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    svg_path = tmp_path / "tree.svg"
    code, _, _ = run(
        capsys, "conjecture", "--qmax", "10",
        "--out", str(report_path), "--svg", str(svg_path), "--strict",
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["rules"]["1/2"] == "both"
    assert report["rule_failures"] == []
    assert svg_path.read_text().count("<circle") == len(report["rules"])


def test_conjecture_strict_exits_2_on_a_failed_rule(capsys, monkeypatch):
    bad_points = conjecture.bad_points
    monkeypatch.setattr(conjecture, "bad_points",
                        lambda q_max: {**bad_points(q_max), Slope(1, 2): "neither"})
    code, out, _ = run(capsys, "conjecture", "--qmax", "6", "--strict")
    assert code == 2
    assert json.loads(out)["rule_failures"] == ["1/2"]
    code, _, _ = run(capsys, "conjecture", "--qmax", "6")
    assert code == 0


def test_dynsys_command(capsys):
    code, out, _ = run(capsys, "dynsys")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 12


def test_bench_command(capsys):
    code, out, _ = run(capsys, "bench", "--path", "fibonacci", "--size", "9")
    assert code == 0
    data = json.loads(out)
    assert data["oracle_mults"] > data["recursion_mults"]
    assert data["target"] == "21/34"


@pytest.mark.parametrize("size", ["0", "-3"])
def test_bench_rejects_sizes_below_one(capsys, size):
    # The size parses; the library rejects it, naming it, before any word.
    code, out, err = run(capsys, "bench", "--path", "left", "--size", size)
    assert code == 2 and out == ""
    assert "computation failed" in err and f"got {size}" in err


def test_bench_mismatch_exits_2(capsys, monkeypatch):
    # A parabolic word-matrix trace off by 1: the benchmark's two routes
    # disagree at the target, which is a computational failure.
    word_matrix = oracle.word_matrix

    def off_by_one(word, ring):
        m = word_matrix(word, ring)
        return SimpleNamespace(trace=m.trace + Poly([1])) if ring == "parabolic" else m

    monkeypatch.setattr(oracle, "word_matrix", off_by_one)
    code, out, err = run(capsys, "bench", "--path", "fibonacci", "--size", "5")
    assert code == 2 and out == ""
    assert "computation failed" in err and "disagree at 3/5" in err


def test_usage_errors(capsys):
    assert main(["word"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["word", "--slope", "abc"]) == 1
    assert main(["slice", "--qmax", "3", "--ring", "generic"]) == 1
    assert main(["cusp-path", "--cf", "0,1", "--depth", "2", "--ring", "generic"]) == 1
    # the one rule of the library, with its message
    capsys.readouterr()
    code, _, err = run(capsys, "slice", "--qmax", "3", "--ring", "generic")
    assert code == 1 and err == "usage error: the generic ring has no roots to find\n"


def test_errors_inside_a_computation_exit_2(capsys):
    # Both commands parse; the error comes from the library call.  At
    # z = 0 and z = 4 the closed form is singular and the recurrence
    # fallback must reject the negative q too.  At q = 400, z = 10 the
    # closed form's complex power overflows.
    for q, z in (("-1", "1"), ("-1", "0"), ("-1", "4"), ("400", "10")):
        code, _, err = run(capsys, "closed-form", "--q", q, "--z", z)
        assert code == 2 and "computation failed" in err, (q, z)
    code, _, err = run(capsys, "conjecture", "--qmax", "1")
    assert code == 2 and "computation failed" in err


def test_unconverged_root_sets_exit_2(capsys, monkeypatch):
    # Both commands still write the roots, then exit 2 naming the count
    # of unconverged sets and the worst residual.
    stuck = pleating.RootSet(slope=Slope(1, 2), ring="parabolic", roots=[1j, -1j],
                             residuals=[1e-12, 3e-6], converged=False)
    monkeypatch.setattr(pleating, "slice_cloud", lambda *args: [stuck])
    monkeypatch.setattr(pleating, "irrational_cusp_path", lambda *args: [stuck])
    for argv in (["slice", "--qmax", "3"], ["cusp-path", "--cf", "0,1", "--depth", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out.splitlines()[0] == "re,im,p,q,residual" and len(out.splitlines()) == 3
        assert "1 of 1 root sets unconverged, worst residual 3.00e-06" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["slice", "--qmax", "3", "--tol", "1e-8"],
        ["cusp-path", "--cf", "0,1", "--depth", "2", "--tol", "1e-8"],
        ["closed-form", "--q", "2", "--z", "x"],
        ["poly", "--slope", "5/3"],
        ["cusp-path", "--cf", "0,a", "--depth", "2"],
        ["cusp-path", "--cf", "0,-1", "--depth", "2"],
        ["cusp-path", "--cf", "2,1", "--depth", "3"],
        ["poly", "--slope", "1/2", "--ring", "numeric(1,3)"],
        ["poly", "--slope", "1/2", "--ring", "numeric"],
        ["slice", "--qmax", "3", "--ring", "foo"],
        ["poly", "--slope", "1/2", "--ring", "parabolic", "--a", "3"],
    ],
    ids=["slice-tol", "cusp-path-tol", "complex", "slope-domain", "cf-int", "cf-terms",
         "cf-domain", "cone-order", "ring-without-orders", "ring-unknown", "cone-order-flag"],
)
def test_arguments_that_do_not_parse_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and "usage error" in err and out == ""


def test_an_unwritable_output_path_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "word", "--slope", "1/2", "--out", str(target))
    assert code == 1 and out == ""
    assert "usage error" in err


def test_an_unknown_ring_label_names_the_accepted_forms(capsys):
    code, _, err = run(capsys, "poly", "--slope", "1/2", "--ring", "foo")
    assert code == 1
    assert "unknown ring 'foo'" in err and "'numeric(a,b)'" in err
