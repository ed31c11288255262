"""Exit codes, output schemas, and determinism of the command line tool."""

import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from vanishkit import cli, constructions, floattext, measures, specio
from vanishkit.cli import main
from vanishkit.errors import InvalidArgument
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


def _example(name):
    return json.dumps({"expr": {"kind": "example", "name": name}})


def _table(out):
    return np.array([[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]])


def test_fourier_of_the_truncated_tents_is_their_mass_at_zero():
    # cut after level 47, ex_tent declares a compact support, so fourier
    # takes it (it used to exit 1: ft_compact requires a declared compact
    # support).  At k = 0 it is the mass 1 - 2^-47, to the rounding of the
    # GL8 sums; untruncated it would be 1, 64 ulps away.
    code, out, err = run(["fourier", "--spec", _example("ex_tent"), "--grid", "0:0:1"])
    assert code == 0 and err == ""
    (k, re, im), = _table(out)
    assert k == 0.0 and im == 0.0
    assert abs(re - (1.0 - 2.0**-47)) <= 4 * 2.0**-53


def test_fourier_of_the_truncated_blocks_is_their_exponential_sum(monkeypatch):
    # cut after level 3, ex_bf is +-1 on the 14 intervals [n + j 2^-n,
    # n + (j+1) 2^-n), n = 1..3: the integral of s e^{-2 pi i k t} over
    # [a, b) is s (e^{-2 pi i k a} - e^{-2 pi i k b}) / (2 pi i k), s (b - a) at 0
    monkeypatch.setattr(constructions, "_BF_MAX_LEVEL", 3)
    code, out, err = run(["fourier", "--spec", _example("ex_bf"), "--grid", "-2:2:0.25"])
    assert code == 0 and err == ""
    got = _table(out)
    ks = got[:, 0]
    want = np.zeros(ks.size, dtype=np.complex128)
    for n in range(1, 4):
        for j in range(2**n):
            a, b, s = n + j / 2**n, n + (j + 1) / 2**n, (-1) ** j
            with np.errstate(divide="ignore", invalid="ignore"):
                term = s * (np.exp(-2j * np.pi * ks * a) - np.exp(-2j * np.pi * ks * b)) / (2j * np.pi * ks)
            want += np.where(ks == 0.0, s * (b - a), term)
    assert np.max(np.abs(got[:, 1] + 1j * got[:, 2] - want)) <= 1e-12


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


def test_rlcheck_direct_column_is_exactly_real():
    # the autocorrelation of a real hat is exactly real, so mu * g is too:
    # every direct_im is 0.0, and none is written -0.0
    code, out, _ = run(["rlcheck", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 241
    assert all(row["direct_im"] == 0.0 for row in rows) and '"direct_im": -0.0' not in out


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


def test_blocks_pass_reports_coverage(record):
    # validate_block_sum and generate_block_sum both validate through it
    calls = record(constructions, "_validate")
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


@pytest.mark.parametrize("value", ["99", "0", "3,11"])
def test_suite_rejects_criterion_numbers_out_of_range(value):
    # not a vacuous "0/0 criteria passed" with exit 0
    code, out, err = run(["suite", "--only", value])
    assert (code, out) == (1, "")
    assert err == "error: --only expects criterion numbers from 1 to 10\n"


def test_subnormal_cells_give_finite_values_or_exit_one():
    # A flat cell 1e-320 wide has slope 0: a complex division by its width
    # multiplied 0 by an overflowing 1 / width and printed nan.
    indicator = '{"expr": {"kind": "ac", "builder": "indicator", "interval": [0, 1e-320]}}'
    code, out, err = run(["convolve", "--spec", indicator, "--grid", "0:1:0.5"])
    assert (code, err) == (0, "")
    assert np.all(np.isfinite(np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)))
    # a sloped one 1e-320 wide overflows its slope
    triangle = '{"expr": {"kind": "ac", "builder": "triangle", "halfwidth": 1e-320}}'
    code, out, err = run(["convolve", "--spec", triangle, "--grid", "0:1:0.5"])
    assert (code, out) == (1, "")
    assert err == "error: density slope is not finite on a cell of width 1e-320\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reports_refuse_non_finite_values(fmt):
    # the scaled ex_a's |mu| masses overflow where they are summed: one line, no numpy warning
    huge = '{"expr": {"kind": "scale", "factor": [1e308, 1e308], "child": {"kind": "pp", "builder": "ex_a"}}}'
    code, out, err = run(["decay", "--spec", huge, "--radii", "50,100", "--format", fmt])
    assert (code, out, err) == (1, "", "error: |mu| of a window overflows float64\n")
    args = argparse.Namespace(format=fmt, out=None)
    with pytest.raises(InvalidArgument, match="report field re is not finite"):
        cli._emit_table(args, {"x": np.zeros(2), "re": np.array([0.0, np.nan])})
    with pytest.raises(InvalidArgument, match="report field max_deviation is not finite"):
        cli._emit_table(args, {"x": np.zeros(2)}, max_deviation=float("inf"))


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
def test_convolve_csv_in_row_blocks_is_header_and_write_rows(monkeypatch, tmp_path, rows):
    # 20,001 rows: 1,251 blocks of 16, or three of 8,192 with a short last one
    monkeypatch.setattr(cli, "_CSV_ROWS", rows)
    xs = -100.0 + 0.01 * np.arange(20001)
    values = convolve_grid(constructions.build_example("ex_a"), tf_hat(0.0, 0.25, 1.0), xs)
    want = io.StringIO()
    want.write("x,re,im\n")
    specio.write_rows(want, np.column_stack((xs, values.real, values.imag)).tolist())
    argv = ["convolve", "--spec", EX_A, "--grid", "-100:100:0.01"]
    code, out, _ = run(argv)
    assert code == 0
    assert out == want.getvalue()
    target = tmp_path / "table.csv"
    assert run(argv + ["--out", str(target)])[:2] == (0, "")
    assert target.read_bytes() == want.getvalue().encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["convolve", "--spec", '{"expr": {"kind": "example", "name": "ex_b"}}', "--grid", "-300:300:0.01"],
        ["bessel"],
    ],
    ids=["convolve_ex_b", "bessel"],
)
def test_tables_take_no_value_per_value(record, argv):
    # work gate: every value of these tables, exact dyadic 17-digit ties
    # included, gets its digits from the vectorised kernel, none from fmt
    calls = record(specio, "write_rows")
    assert run(argv)[0] == 0
    values = np.concatenate([np.asarray(rows, dtype=float).ravel() for _, rows in calls])
    assert values.size == {"convolve": 3 * 60001, "bessel": 4 * 101}[argv[0]]
    assert not floattext._digits17(values)[2].any()


@pytest.mark.parametrize(
    ("argv", "most"),
    [
        # 2,048,001 points each while the densities declared no support
        (["mean", "--spec", _example("ex_tent"), "--nlist", "10,100,1000", "--format", "json"], 140_000),
        (["mean", "--spec", _example("ex_bf"), "--nlist", "10,100,1000", "--format", "json"], 70_000),
        # 250,000 points each, all of them zero
        (["decay", "--spec", _example("ex_tent"), "--radii", "50,100,200", "--epsilon", "0.05", "--format", "json"], 16),
        (["decay", "--spec", _example("ex_bf"), "--radii", "50,100,200", "--epsilon", "0.05", "--format", "json"], 16),
    ],
)
def test_truncated_densities_are_convolved_only_where_they_live(record, argv, most):
    # work gate: ex_tent lives on [1/2, 47 + 2^-47] and ex_bf on [1, 15]; a
    # scan block past them resolves no piece and is read at its corners
    calls = record(measures._Block, "convolve")
    assert run(argv)[0] == 0
    assert sum(grid.size for _, _, grid, _ in calls) <= most
    if argv[0] == "decay":  # radii from 50 out: every block lies past the support
        assert not any(block.res.pieces for block, *_ in calls)


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


def _source_env():
    """The environment of a fresh python that imports vanishkit from this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(*args):
    """The exit code, stdout and stderr of a fresh `python *args` that
    imports vanishkit from this source tree."""
    proc = subprocess.run([sys.executable, *args], env=_source_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_importing_the_cli_builds_no_float_text_table():
    # decay, mean, blocks and suite write no CSV table; the %.17g kernel's
    # tables (about 1.4 ms) are built on the first table written
    tables = "[t.cache_info().currsize for t in (f._pow10_table, f._layouts, f._exponents)]"
    code, out, err = _python("-c", f"import vanishkit.cli, vanishkit.floattext as f; print({tables})")
    assert (code, out, err) == (0, "[0, 0, 0]\n", "")


def test_closed_stdout_exits_one_without_a_traceback():
    # `vanishkit convolve ... | head -1`: the reader leaves after one line of
    # a table far longer than a pipe holds
    argv = ["-m", "vanishkit", "convolve", "--spec", EX_A, "--grid", "0:300:0.01"]
    proc = subprocess.Popen([sys.executable, *argv], env=_source_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "x,re,im\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err


def _alone(argv):
    """argv's exit code, stdout and stderr from a fresh `python -m vanishkit`."""
    return _python("-m", "vanishkit", *argv)


def test_import_leaves_fractions_and_decimal_out():
    # the table writer's power-of-ten table is built from ints alone, so it
    # adds no module import to the set-up time of every command
    code, out, err = _python("-c", "import sys, vanishkit.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    assert (code, out, err) == (0, "[]\n", "")


def test_python_dash_m_runs_the_command_line():
    code, out, err = _alone(["suite", "--only", "1"])
    assert code == 0, err
    assert "1/1 criteria passed" in out


@pytest.mark.parametrize("argv", [
    ["rajchman", "--spec", EX_A, "--f-height", "1e200"],
    ["rlcheck", "--f-height", "1e160"],
])
def test_autocorrelation_overflow_exits_one_with_one_line(argv):
    # in a fresh process, where a numpy RuntimeWarning would reach stderr
    code, out, err = _alone(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows float64" in err


@pytest.mark.parametrize("halfwidth, cause", [("1e-300", "overflows float64"), ("1e-9", "3.31e+09 nodes at one level")])
def test_rlcheck_too_narrow_exits_one_before_allocating(halfwidth, cause):
    # 1e-300: the slope-jump bound squared overflows; 1e-9: the first
    # spectral level would hold 3.31e9 nodes; both are refused before the
    # autocorrelation and the spectral side are built
    tracemalloc.start()
    try:
        code, out, err = run(["rlcheck", "--f-halfwidth", halfwidth])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert cause in err and err.count("\n") == 1
    assert peak < 1_000_000


def test_rlcheck_narrow_hat_that_fits_exits_zero():
    # refused while the cap was the finest level's count (1.33M nodes, over
    # 2^20); its spectral side converges at the second level, of 663k nodes
    code, out, err = run(["rlcheck", "--f-halfwidth", "1e-3", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["max_deviation"] <= 1e-4


@pytest.mark.parametrize(
    "grid, cause",
    [("0:1e9:1e8", "3.2e+10 nodes"), ("0:1e6:1e5", "3.2e+07 nodes"), ("0:3e5:1e5", "1.92e+07 nodes")],
)
def test_fourier_at_extreme_frequencies_exits_one_before_allocating(grid, cause):
    # the first transform level of the triangle holds 8 nodes per panel and
    # 2 k_max panels per unit length, on its two unit cells; at k_max 3e5 it
    # fits (9.6e6 nodes) and the second does not, so neither is built
    tracemalloc.start()
    try:
        code, out, err = run(["fourier", "--spec", TRIANGLE, "--grid", grid])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert cause + " at one level" in err and err.count("\n") == 1
    assert peak < 1_000_000


def test_main_builds_one_parser_per_process(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "vanishkit":  # the top parser, not a subcommand's
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    for argv in (["bessel", "--grid", "0:1:0.5"], ["frobnicate"], ["suite", "--only", "1"]):
        run(argv)
    assert len(built) == 1 and cli.build_parser() is built[0]


def test_shared_parser_keeps_nothing_between_calls():
    # a JSON call, a usage error and a call that takes the default format:
    # neither the format nor the error carries over to the next call
    sequence = [
        ["convolve", "--spec", EX_A, "--grid", "99.8:100.2:0.1", "--format", "json"],
        ["convolve", "--spec", EX_A, "--grid", "99.8:100.2:0.1", "--format", "yaml"],
        ["convolve", "--spec", EX_A, "--grid", "99.8:100.2:0.1"],
    ]
    got = [run(argv) for argv in sequence]
    assert [code for code, _, _ in got] == [0, 1, 0]
    assert got[2][1].startswith("x,re,im\n")
    assert got == [_alone(argv) for argv in sequence]


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
SCALED_EX_BF = '{"expr": {"kind": "scale", "factor": [1e308, 1e308], "child": {"kind": "example", "name": "ex_bf"}}}'
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
        # weights that overflow once scaled: the report's finite check, no numpy warning
        ["convolve", "--spec", '{"expr": {"kind": "scale", "factor": [1e308, 1e308], "child": '
         '{"kind": "pp", "builder": "ex_a"}}}', "--grid", "0:1:0.5", "--f-height", "1e10"],
        ["mean", "--nlist", "10,100", "--spec", '{"expr": {"kind": "scale", "factor": [1e308, 1e308], '
         '"child": {"kind": "pp", "builder": "ex_a"}}}'],
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
        # shifts whose gap would overflow float64
        _blocks({"window": [0, 1], "parts": [{"shift": s, "atoms": [[0.5, 1, 0]]} for s in (-1.7e308, 1.7e308)]}),
        # a hat narrower than the float64 spacing at its center
        ["decay", "--spec", EX_A, "--radii", "50,100", "--f-center", "1e308"],
        # grids beyond the point cap, refused before any array exists
        ["convolve", "--spec", EX_A, "--grid", "0:1e12:1e-3"],
        ["bessel", "--grid", "0:1e12:1e-3"],
        ["rlcheck", "--grid", "0:1e12:1e-3"],
        ["fourier", "--grid", "0:1:1e-12"],
        # a cell density that overflows once scaled: no numpy warning from its cells either
        ["convolve", "--spec", SCALED_EX_BF, "--grid", "0:16:0.001"],
        ["mean", "--nlist", "10", "--spec", SCALED_EX_BF],
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


def test_json_reports_match_the_indenting_encoder():
    # every command's JSON output is json.dumps(indent=2, sort_keys=True)
    # byte for byte, tables (whose rows are written around it) included
    for argv in _JSON_COMMANDS:
        code, out, _ = run(argv + ["--format", "json"])
        assert code in (0, 2)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("rows", [1, 7, 1 << 13])
@pytest.mark.parametrize(
    "argv",
    [
        ["convolve", "--spec", EX_A, "--grid", "-1:1:0.01"],
        ["bessel", "--grid", "0:2:0.01"],
        ["fourier", "--grid", "-1:1:0.01", "--truncation", "5"],
        ["rlcheck"],
    ],
    ids=["convolve", "bessel", "fourier", "rlcheck"],
)
def test_json_tables_in_row_blocks_are_json_text(monkeypatch, tmp_path, argv, rows):
    # 201 rows (rlcheck: its default grid), in blocks of 1, 7 (a short last
    # one) or one block; the fields sort before and after "rows"
    monkeypatch.setattr(cli, "_CSV_ROWS", rows)
    code, out, _ = run(argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) > 7
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    target = tmp_path / "table.json"
    assert run(argv + ["--format", "json", "--out", str(target)])[:2] == (0, "")
    assert target.read_bytes() == out.encode()


def test_json_tables_match_the_indenting_encoder_on_edge_values(monkeypatch):
    # _emit_table against json.dumps of the whole table: -0.0 and a subnormal
    # in rows and fields, a one-row table, fields sorting before and after
    # "rows", in row blocks of 1, 7 (a short last one) and 8,192
    z = np.array([complex(1.5, -0.0), complex(-0.0, 2.5), complex(-3.0, 1e-320)] * 5)
    tables = [
        ({"re": z.real, "im": z.imag, "abs": np.abs(z)}, {"max": 5e-324, "none": None, "flag": True}),
        ({"x": np.array([-0.0])}, {"k": 1e-320, "zero": -0.0}),
        ({"x": np.linspace(-1.0, 1.0, 9)}, {}),
    ]
    args = argparse.Namespace(format="json", out=None)
    for rows in (1, 7, 1 << 13):
        monkeypatch.setattr(cli, "_CSV_ROWS", rows)
        for columns, fields in tables:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli._emit_table(args, columns, **fields)
            names = list(columns)
            table = {**fields, "rows": [dict(zip(names, r)) for r in np.column_stack(list(columns.values())).tolist()]}
            assert out.getvalue() == json.dumps(table, indent=2, sort_keys=True) + "\n"
    # a NaN or +-inf column or field is refused before anything is written
    for bad in (np.nan, np.inf, -np.inf):
        for columns, fields in (({"x": np.array([0.0, bad])}, {}), ({"x": np.zeros(3)}, {"max": bad})):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(InvalidArgument, match="is not finite"):
                cli._emit_table(args, columns, **fields)
            assert out.getvalue() == ""


HARMONIC = '{"expr": {"kind": "pp", "builder": "lattice", "weights": "harmonic"}}'
_PASSING_PARTS = {"window": [-0.5, 0.5], "parts": [{"shift": float(n), "atoms": [[0.0, 2.0**-n, 0.0]]} for n in range(1, 13)]}
_OFF_WINDOW_PART = {"window": [-0.5, 0.5], "parts": [{"shift": 0.0, "atoms": [[0.75, 1.0, 0.0]]}]}


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["decay", "--spec", EX_A, "--radii", "50,100"], 0, "R,sup\n50,0.080000000000012506\n100,0.040000000000020464\n"),
        (["rajchman", "--spec", FINITE, "--radii", "4,8"], 0, "R,sup\n4,0\n8,0\n"),
        (["mean", "--spec", COMB, "--nlist", "5,10"], 0, "n,average\n5,0.25\n10,0.25\n"),
        (["coeffs", "--spec", HARMONIC, "--rmax", "200"], 0, "verdict,radius,scanned\nvanishing-up-to-horizon,19,401\n"),
        (
            _blocks({"recipe": "ex_nu", "n": 25}), 2,
            "field,value\nh_bounded,True\nh_support,True\nh_udiscrete,True\nh_vague_null,False\nmin_shift_gap,1\n"
            "overall,False\nsup_variation,1.0000000000000002\nsupport_offender,None\nworst_pairing,0.5\n",
        ),
        (
            _blocks(_PASSING_PARTS), 0,
            'field,value\ncovered,"[0.5, 12.5]"\nh_bounded,True\nh_support,True\nh_udiscrete,True\nh_vague_null,True\n'
            "min_shift_gap,1\nn_parts,12\noverall,True\nsup_variation,0.5\nsupport_offender,None\nworst_pairing,0.0009765625\n",
        ),
        (
            _blocks(_OFF_WINDOW_PART), 2,
            "field,value\nh_bounded,True\nh_support,False\nh_udiscrete,True\nh_vague_null,False\nmin_shift_gap,None\n"
            "overall,False\nsup_variation,0\nsupport_offender,0\nworst_pairing,0.5\n",
        ),
        (
            # the widest shifts a block spec accepts, +-2^1022: their gap is finite
            _blocks({"window": [0, 1], "parts": [{"shift": s, "atoms": [[0.5, 1, 0]]} for s in (-(2.0**1022), 2.0**1022)]}),
            2,
            "field,value\nh_bounded,True\nh_support,True\nh_udiscrete,True\nh_vague_null,False\n"
            "min_shift_gap,8.9884656743115795e+307\noverall,False\nsup_variation,1\nsupport_offender,None\nworst_pairing,1\n",
        ),
    ],
    ids=["decay", "rajchman", "mean", "coeffs", "blocks_failing", "blocks_passing", "blocks_one_part", "blocks_widest_shifts"],
)
def test_report_csv_bytes(argv, code, text):
    # numbers (ints too) in 17 significant digits, bools and None as str;
    # only the blocks "covered" row differs from the hand-built CSVs before
    # the one report writer: one quoted field, not "[0.5, 12.5]" split in two
    assert run(argv)[:2] == (code, text)


@pytest.mark.parametrize(
    "spec", [{"recipe": "ex_b", "n": 800}, _PASSING_PARTS, _OFF_WINDOW_PART], ids=["ex_b", "passing", "one_part"]
)
def test_blocks_csv_rows_are_two_fields_holding_the_json_values(spec):
    _, csv_out, _ = run(_blocks(spec))
    _, json_out, _ = run(_blocks(spec) + ["--format", "json"])
    report = json.loads(json_out)
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["field", "value"] and all(len(row) == 2 for row in rows)
    fields = dict(rows[1:])
    assert list(fields) == sorted(report)
    for key, value in report.items():
        if isinstance(value, list):  # covered: [lo, hi] in 17 significant digits
            assert json.loads(fields[key]) == value
        elif value is None or isinstance(value, bool):
            assert fields[key] == str(value)
        else:
            assert float(fields[key]) == value
    if "recipe" in spec:
        assert fields["covered"] == "[-801, 801]"


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", "--spec", EX_A, "--radii", "50,100"],
        ["rajchman", "--spec", FINITE, "--radii", "4,8"],
        ["mean", "--spec", COMB, "--nlist", "5,10"],
        ["coeffs", "--spec", HARMONIC, "--rmax", "200"],
        ["convolve", "--spec", EX_A, "--grid", "99.8:100.2:0.1"],
        ["fourier", "--spec", TENT, "--grid", "-1:1:0.5"],
        ["fourier", "--grid", "-1:1:0.5", "--truncation", "5"],
        ["bessel", "--grid", "0:2:0.5"],
        ["rlcheck", "--grid", "-1:1:0.5"],
        _blocks(_OFF_WINDOW_PART),
        _blocks(_PASSING_PARTS),
    ],
    ids=[
        "decay", "rajchman", "mean", "coeffs", "convolve", "fourier_spec", "fourier_series", "bessel", "rlcheck",
        "blocks_one_part", "blocks_many_parts",
    ],
)
def test_json_output_is_strict_json(argv):
    # RFC 8259 has no NaN, Infinity or -Infinity, though json.loads reads them
    code, out, _ = run(argv + ["--format", "json"])
    assert code in (0, 2)
    json.loads(out, parse_constant=_not_json)


def _readme_examples() -> list[tuple[list[str], str]]:
    """The ``$ vanishkit ...`` examples of README.md as (argv, the output
    shown): a command runs on until its quotes close and its last line ends
    without a backslash."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(\$ vanishkit .*?)```", text, re.S):
        lines = block.splitlines()
        for end in range(1, len(lines) + 1):
            command = "\n".join(lines[:end])[2:].replace("\\\n", " ")
            if not command.endswith("\\"):
                try:
                    argv = shlex.split(command)[1:]
                except ValueError:  # a quote still open
                    continue
                break
        examples.append((argv, "\n".join(lines[end:]) + "\n"))
    return examples


def _masked(text: str) -> str:
    return re.sub(r"\[\d+\.\d+s\]", "[N.Ns]", text)  # the suite's timings


@pytest.mark.parametrize("argv, shown", [pytest.param(*ex, id=ex[0][0]) for ex in _readme_examples()])
def test_readme_example_prints_what_the_readme_shows(argv, shown):
    _, out, _ = run(argv)
    assert _masked(out) == _masked(shown)


def test_readme_shows_an_example_of_each_documented_command():
    assert [argv[0] for argv, _ in _readme_examples()] == ["convolve", "coeffs", "bessel", "blocks", "suite"]


def test_grid_point_cap_counts_the_points_it_would_allocate(monkeypatch):
    # lo:hi:step holds floor((hi - lo) / step + 1e-9) + 1 points
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 5)
    assert cli._parse_grid("0:4:1").tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert cli._parse_grid("0:0.4:0.1").size == 5
    for text in ("0:5:1", "0:0.5:0.1", "0:1e300:1e-300"):
        with pytest.raises(InvalidArgument, match="more than 5 points"):
            cli._parse_grid(text)
