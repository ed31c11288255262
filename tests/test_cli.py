"""Exit codes, output schemas, and determinism of the command line tool."""

import io
import json
import contextlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from vanishkit import cli, constructions, specio
from vanishkit.cli import main
from vanishkit.measures import convolve_grid
from vanishkit.testfunctions import tf_hat

EX_A = '{"expr": {"kind": "pp", "builder": "ex_a"}}'
EX_NU = '{"expr": {"kind": "pp", "builder": "ex_nu"}}'
COMB = '{"expr": {"kind": "pp", "builder": "lattice", "spacing": 1.0}}'


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_convolve_csv_schema_and_value():
    code, out, _ = run(["convolve", "--spec", EX_A, "--grid", "100:100:1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,re,im"
    x, re, im = lines[1].split(",")
    assert float(x) == 100.0
    assert float(re) == pytest.approx(-0.04, abs=1e-12)
    assert float(im) == 0.0
    # 17 significant digits survive in the text
    assert re == "-0.040000000000020464"


def test_decay_vanishing_exits_zero_with_decreasing_sups():
    code, out, _ = run(["decay", "--spec", EX_A, "--radii", "50,100,200"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    sups = [float(r[1]) for r in rows]
    assert sups == sorted(sups, reverse=True)


def test_decay_plateau_exits_two():
    code, out, _ = run([
        "decay", "--spec", EX_NU, "--f-center", "0.5", "--f-halfwidth", "0.5",
        "--radii", "50,100", "--epsilon", "0.1", "--format", "json",
    ])
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "not-vanishing"
    assert report["K_eps_estimate"] is None


def test_coeffs_exit_codes():
    harmonic = ('{"expr": {"kind": "pp", "builder": "lattice", "spacing": 1.0,'
                ' "weights": "harmonic"}}')
    code, out, _ = run(["coeffs", "--spec", harmonic, "--rmax", "100"])
    assert code == 0
    assert out.splitlines()[0] == "verdict,radius,scanned"
    code, _, _ = run(["coeffs", "--spec", COMB, "--rmax", "100"])
    assert code == 2


def test_mean_csv():
    code, out, _ = run(["mean", "--spec", COMB, "--nlist", "5,10"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["5", "10"]
    assert float(rows[0][1]) == pytest.approx(0.25, abs=1e-12)


def test_fourier_modes():
    atoms = '{"expr": {"kind": "pp", "builder": "finite_atoms", "atoms": [[0.0, 1.0, 0.0]]}}'
    code, out, _ = run(["fourier", "--spec", atoms, "--grid", "0:1:0.5"])
    assert code == 0
    assert out.splitlines()[0] == "k,re,im"
    assert all(line.split(",")[1] == "1" for line in out.strip().splitlines()[1:])

    tri = '{"expr": {"kind": "ac", "builder": "triangle", "center": 0.0, "halfwidth": 1.0, "height": 1.0}}'
    code, out, _ = run(["fourier", "--spec", tri, "--grid", "0:1:1"])
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert vals[0] == pytest.approx(1.0, abs=1e-10)
    assert vals[1] == pytest.approx(0.0, abs=1e-10)

    code, out, _ = run(["fourier", "--grid", "0:1:1", "--truncation", "5"])
    assert code == 0
    assert out.splitlines()[0] == "k,value"
    assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(7.875)


def test_bessel_table_within_tolerance():
    code, out, _ = run(["bessel", "--grid", "0:10:0.5"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 21
    assert max(float(r.split(",")[3]) for r in rows) <= 1e-8


def test_rlcheck_json_schema():
    code, out, _ = run(["rlcheck", "--grid", "-1:1:0.5", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"max_deviation", "k_window", "tail_estimate", "quad_estimate", "rows"}
    assert set(report["rows"][0]) == {
        "x", "direct_re", "direct_im", "spectral_re", "spectral_im", "deviation"
    }
    assert report["max_deviation"] <= 1e-4


FINITE = '{"expr": {"kind": "pp", "builder": "finite_atoms", "atoms": [[0.0, 1.0, 0.0], [0.5, 0.25, -1.0]]}}'
TENT = '{"expr": {"kind": "ac", "builder": "triangle", "center": 0.5, "halfwidth": 1.0, "height": 2.0}}'


@pytest.mark.parametrize(
    "argv",
    [
        ["convolve", "--spec", EX_A, "--grid", "99.8:100.2:0.1"],
        ["fourier", "--spec", FINITE, "--grid", "-1:1:0.25"],
        ["fourier", "--spec", TENT, "--grid", "-1:1:0.25"],
        ["fourier", "--grid", "-1:1:0.25", "--truncation", "5"],
        ["bessel", "--grid", "0:2:0.25"],
        ["rlcheck"],
    ],
)
def test_table_csv_and_json_carry_the_same_rows(argv):
    _, csv_out, _ = run(argv)
    _, json_out, _ = run(argv + ["--format", "json"])
    names = csv_out.splitlines()[0].split(",")
    report = json.loads(json_out)
    lines = csv_out.splitlines()[1:]
    assert len(lines) == len(report["rows"]) > 1
    for line, row in zip(lines, report["rows"]):
        assert sorted(row) == sorted(names)
        assert [float(v) for v in line.split(",")] == [row[n] for n in names]
    if "deviation" in names:
        assert report["max_deviation"] == max(row["deviation"] for row in report["rows"])


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", "--spec", EX_A, "--radii", "50,100"],
        ["rajchman", "--spec", FINITE, "--radii", "4,8"],
        ["mean", "--spec", COMB, "--nlist", "5,10"],
    ],
)
def test_profile_csv_rows_are_the_json_entries(argv):
    _, csv_out, _ = run(argv)
    _, json_out, _ = run(argv + ["--format", "json"])
    rows = [[float(v) for v in line.split(",")] for line in csv_out.splitlines()[1:]]
    assert rows == json.loads(json_out)["entries"]


def test_rajchman_exit_codes():
    code, _, _ = run(["rajchman", "--spec", COMB, "--radii", "4,8"])
    assert code == 2
    finite = '{"expr": {"kind": "pp", "builder": "finite_atoms", "atoms": [[0.0, 1.0, 0.0]]}}'
    code, _, _ = run(["rajchman", "--spec", finite, "--radii", "4,8"])
    assert code == 0


def test_blocks_validation_failure_exits_two():
    code, out, _ = run(["blocks", "--spec", '{"recipe": "ex_nu", "n": 25}', "--format", "json"])
    assert code == 2
    report = json.loads(out)
    assert report["overall"] is False
    assert report["h_vague_null"] is False
    assert report["h_support"] is True


def test_blocks_pass_reports_coverage(monkeypatch):
    calls = []
    real = constructions._validate

    def counted(inp, probes=None):
        calls.append(inp)
        return real(inp, probes)

    # validate_block_sum and generate_block_sum both validate through it
    monkeypatch.setattr(constructions, "_validate", counted)
    parts = [
        {"shift": float(n), "atoms": [[0.0, 2.0 ** -n, 0.0]]} for n in range(1, 41)
    ]
    spec = json.dumps({"window": [-0.5, 0.5], "parts": parts})
    code, out, _ = run(["blocks", "--spec", spec, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert report["n_parts"] == 40
    assert report["covered"][1] >= 40.0
    assert len(calls) == 1  # validated once, not again to generate


def test_blocks_rejects_translate_rule_key():
    parts = [{"shift": 1.0, "atoms": [[0.0, 1.0, 0.0]]}]
    spec = json.dumps({"window": [-0.5, 0.5], "parts": parts, "translate_rule": "t[n] = n"})
    code, out, err = run(["blocks", "--spec", spec])
    assert code == 1
    assert out == ""
    assert "unknown key(s)" in err and err.count("\n") == 1


def test_malformed_json_exits_one_with_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"expr":\n {"kind": }\n}')
    code, _, err = run(["decay", "--spec", str(bad), "--radii", "10"])
    assert code == 1
    assert "line 2" in err


def test_usage_errors_exit_one():
    code, _, _ = run(["decay", "--radii", "10"])  # missing --spec
    assert code == 1
    code, _, _ = run(["decay", "--spec", EX_A, "--radii", "ten"])
    assert code == 1
    code, _, _ = run(["frobnicate"])
    assert code == 1
    code, _, _ = run(["decay", "--spec", EX_A, "--radii", "10", "--format", "yaml"])
    assert code == 1


@pytest.mark.parametrize("extra", [["--radii", "nan,100"], ["--epsilon", "inf", "--format", "json"]])
def test_decay_non_finite_input_exits_one(extra):
    code, out, err = run(["decay", "--spec", EX_A] + extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["convolve", "--spec", EX_A, "--grid", "0:inf:1"],
        ["bessel", "--grid", "0:inf:1"],
        ["convolve", "--spec", EX_A, "--grid", "nan:1:0.5"],
        ["fourier", "--grid", "0:1:nan"],
        ["convolve", "--spec", EX_A, "--grid", "0:one:0.5"],
        ["convolve", "--spec", EX_A, "--grid", "-1e308:1e308:1"],
        # finite span, but more points than an index can count
        ["convolve", "--spec", EX_A, "--grid", "0:1e30:1"],
    ],
)
def test_bad_grid_exits_one(argv):
    code, out, err = run(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --grid") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "1.5,2", "1e3", "ten"])
@pytest.mark.parametrize("command, flag", [("mean", "--nlist"), ("suite", "--only")])
def test_integer_flags_reject_non_integers(command, flag, value):
    spec = ["--spec", COMB] if command == "mean" else []
    code, out, err = run([command, *spec, flag, value])
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} expects comma-separated integers\n"


def test_mean_horizon_with_too_many_points_exits_one():
    code, out, err = run(["mean", "--spec", COMB, "--nlist", "1" + "0" * 30])
    assert code == 1
    assert out == ""
    assert err.startswith("error: horizon") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, rmax",
    [
        ('{"expr": {"kind": "pp", "builder": "lattice", "offset": 1e999}}', "100"),
        # a finite window with more lattice indices than an index can count
        (COMB, "1e300"),
        # finite inputs whose index quotients overflow to infinity
        ('{"expr": {"kind": "pp", "builder": "lattice", "spacing": 1e-310}}', "100"),
        ('{"expr": {"kind": "pp", "builder": "lattice", "offset": 1.7e308}}', "1e308"),
    ],
)
def test_coeffs_lattice_out_of_range_exits_one(spec, rmax):
    code, out, err = run(["coeffs", "--spec", spec, "--rmax", rmax])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_spec_file_not_found_exits_one():
    code, _, err = run(["decay", "--spec", "/no/such/file.json", "--radii", "10"])
    assert code == 1
    assert "not found" in err


def test_output_deterministic_and_out_flag(tmp_path):
    args = ["decay", "--spec", EX_A, "--radii", "100,200", "--format", "json"]
    _, first, _ = run(args)
    _, second, _ = run(args)
    assert first == second
    target = tmp_path / "report.json"
    code, _, _ = run(args + ["--out", str(target)])
    assert code == 0
    assert target.read_text() == first


@pytest.mark.parametrize("rows", [16, 1 << 13])
def test_convolve_csv_in_row_blocks_is_write_csv(monkeypatch, tmp_path, rows):
    # 20,001 rows: 1,251 blocks of 16, or three of 8,192 with a short last one
    monkeypatch.setattr(cli, "_CSV_ROWS", rows)
    xs = -100.0 + 0.01 * np.arange(20001)
    values = convolve_grid(constructions.build_example("ex_a"), tf_hat(0.0, 0.25, 1.0), xs)
    want = io.StringIO()
    specio.write_csv(want, "x,re,im", np.column_stack((xs, values.real, values.imag)).tolist())
    argv = ["convolve", "--spec", EX_A, "--grid", "-100:100:0.01"]
    code, out, _ = run(argv)
    assert code == 0
    assert out == want.getvalue()
    target = tmp_path / "table.csv"
    assert run(argv + ["--out", str(target)])[:2] == (0, "")
    assert target.read_bytes() == want.getvalue().encode()


def test_huge_test_function_exits_one_before_allocating():
    tracemalloc.start()
    try:
        code, out, err = run(["mean", "--spec", EX_A, "--f-step", "1e-9"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert "samples" in err and len(err.strip().splitlines()) == 1
    assert peak < 1_000_000  # a hat of 5e8 samples would be 8 GB


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "vanishkit", "suite", "--only", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "1/1 criteria passed" in proc.stdout


def test_negative_grid_values_accepted():
    code, out, _ = run(["convolve", "--spec", EX_A, "--grid", "-2:2:1"])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_suite_subset_runs_and_passes():
    code, out, _ = run(["suite", "--only", "1,3"])
    assert code == 0
    assert "PASS   1." in out
    assert "PASS   3." in out
    assert "2/2 criteria passed" in out


def _blocks(spec):
    return ["blocks", "--spec", json.dumps(spec)]


_PART = {"shift": 1.0, "atoms": [[0.0, 1.0, 0.0]]}
J0 = '{"expr": {"kind": "example", "name": "j0_radial"}}'
TRIANGLE = '{"expr": {"kind": "ac", "builder": "triangle"}}'


@pytest.mark.parametrize(
    "argv",
    [
        _blocks({"recipe": "ex_a", "n": "x"}),
        _blocks({"recipe": "ex_a", "n": float("nan")}),
        _blocks({"recipe": "ex_a", "n": 1.5}),
        _blocks({"window": 5, "parts": [_PART]}),
        _blocks({"window": [0], "parts": [_PART]}),
        _blocks({"window": [-0.5, 0.5], "parts": 5}),
        _blocks({"window": [-0.5, 0.5], "parts": [5]}),
        _blocks({"window": [-0.5, 0.5], "parts": [{"shift": 1.0, "atoms": [[0.5]]}]}),
        _blocks({"window": [-0.5, 0.5], "parts": [
            {"shift": 1.0, "densities": [{"builder": "indicator", "interval": [0]}]}]}),
        ["decay", "--spec", '{"expr": {"kind": "example", "name": "ex_sinc_series", "truncation": "x"}}'],
        # non-finite spec numbers
        ["convolve", "--spec", '{"expr": {"kind": "pp", "builder": "finite_atoms", '
         '"atoms": [[0.0, Infinity, 0.0]]}}', "--grid", "0:1:0.5"],
        ["convolve", "--spec", '{"expr": {"kind": "scale", "factor": NaN, "child": '
         '{"kind": "pp", "builder": "ex_a"}}}', "--grid", "0:1:0.5"],
        # tolerances outside (0, inf)
        ["convolve", "--spec", J0, "--grid", "0:1:0.5", "--tolerance", "nan"],
        ["convolve", "--spec", J0, "--grid", "0:1:0.5", "--tolerance", "0"],
        ["convolve", "--spec", J0, "--grid", "0:1:0.5", "--tolerance", "-1"],
        ["fourier", "--spec", TRIANGLE, "--grid", "0:1:0.5", "--tolerance", "nan"],
        ["bessel", "--grid", "0:1:0.5", "--tolerance", "-1"],
        # recipes whose atom count is checked before any array exists
        _blocks({"recipe": "ex_nu", "n": 10**8}),
        _blocks({"recipe": "ex_b", "n": 10**8}),
        _blocks({"recipe": "ex_a", "n": 10**8}),
        # extreme test functions, refused before any array arithmetic warns
        ["decay", "--spec", EX_A, "--radii", "50,100", "--f-halfwidth", "1e308"],
        ["decay", "--spec", EX_A, "--radii", "50,100", "--f-height", "inf"],
        ["decay", "--spec", EX_A, "--radii", "50,100", "--f-center", "nan"],
        ["decay", "--spec", EX_A, "--radii", "50,100", "--f-halfwidth", "1e307"],
        # a step finer than MAX_SAMPLES allows, refused before a scan starts
        ["mean", "--spec", EX_A, "--nlist", "10", "--f-step", "1e-9"],
        # comb windows whose atom count is checked before any array exists
        ["coeffs", "--spec", EX_A, "--rmax", "1e300"],
        ["coeffs", "--spec", EX_A, "--rmax", "1e9"],
        ["coeffs", "--spec", EX_NU, "--rmax", "1e9"],
        ["coeffs", "--spec", COMB, "--rmax", "1e12"],
        # a pairing tolerance no pairing can meet
        _blocks({"window": [0, 1], "parts": [{"shift": 0, "atoms": [[0.5, 1, 0]]}], "pairing_tol": -1}),
    ],
)
def test_malformed_input_exits_one_with_one_line(argv):
    code, out, err = run(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_JSON_COMMANDS = [
    ["convolve", "--spec", EX_A, "--grid", "99.8:100.2:0.1"],
    ["convolve", "--spec", TENT, "--grid", "-1:1:0.25"],
    ["decay", "--spec", EX_A, "--radii", "50,100"],
    ["decay", "--spec", EX_NU, "--radii", "10,20"],
    ["coeffs", "--spec", COMB, "--rmax", "20"],
    ["mean", "--spec", COMB, "--nlist", "5,10"],
    ["fourier", "--spec", FINITE, "--grid", "-1:1:0.25"],
    ["fourier", "--grid", "-1:1:0.25", "--truncation", "5"],
    ["bessel", "--grid", "0:2:0.25"],
    ["rlcheck"],
    ["rajchman", "--spec", FINITE, "--radii", "4,8"],
    _blocks({"recipe": "ex_b", "n": 20}),
    _blocks({"window": [-0.5, 0.5], "parts": [{"shift": float(n), "atoms": [[0.0, 2.0**-n, 0.0]]} for n in range(1, 9)]}),
]


def test_json_reports_match_the_indenting_encoder(monkeypatch):
    # every command's JSON report is json.dumps(indent=2, sort_keys=True)
    # byte for byte
    from vanishkit import cli

    seen = []
    fast = cli._json_text

    def checked(payload):
        text = fast(payload)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        seen.append(payload)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)
    for argv in _JSON_COMMANDS:
        code, _, _ = run(argv + ["--format", "json"])
        assert code in (0, 2)
    assert len(seen) == len(_JSON_COMMANDS)


def test_json_text_matches_the_indenting_encoder_on_edge_values():
    from vanishkit.cli import _json_text

    z = np.array([complex(1.5, -0.0), complex(np.nan, np.inf), complex(-np.inf, 1e-320)])
    rows = np.column_stack((z.real, z.imag, np.abs(z))).tolist()
    payloads = [
        {"rows": [dict(zip(("re", "im", "abs"), r)) for r in rows], "max": np.float64(np.nan), "none": None},
        {"entries": rows, "flag": True, "text": 'a "quoted"\nline, ] }', "k": (1.0, -0.0)},
        {"empty": [], "nothing": {}, "nested": {"a": [1, {"b": []}, [[]], [{}]], "c": [[1.0], [2.0, [3.0]]]}},
        {"mixed": [1.0, [2.0], {"x": -np.inf}], "rows": [[0.1], ["]", "}"]], "one": [{"k": 1}]},
        {},
    ]
    for payload in payloads:
        assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
