import json

import pytest

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
    code, out, _ = run(
        capsys, "poly", "--slope", "1/2", "--ring", "numeric", "--a", "3", "--b", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "numeric(3,3)"
    assert len(data["coeffs"]) == 3


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


def test_usage_errors(capsys):
    assert main(["word"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["word", "--slope", "abc"]) == 1
    assert main(["slice", "--qmax", "3", "--ring", "generic"]) == 1


def test_errors_inside_a_computation_exit_2(capsys):
    # Both commands parse; the ValueError comes from the library call.
    code, _, err = run(capsys, "closed-form", "--q", "-1", "--z", "1")
    assert code == 2 and "computation failed" in err
    code, _, err = run(capsys, "conjecture", "--qmax", "1")
    assert code == 2 and "computation failed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "--q", "2", "--z", "x"],
        ["poly", "--slope", "5/3"],
        ["cusp-path", "--cf", "0,a", "--depth", "2"],
        ["cusp-path", "--cf", "0,-1", "--depth", "2"],
        ["poly", "--slope", "1/2", "--ring", "numeric", "--a", "1"],
    ],
    ids=["complex", "slope-domain", "cf-int", "cf-terms", "cone-order"],
)
def test_arguments_that_do_not_parse_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and "usage error" in err
