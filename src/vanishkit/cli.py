"""Command-line front end.

Subcommands map one-to-one onto the library: convolve, decay, coeffs,
mean, fourier, bessel, rlcheck, rajchman, blocks, suite.  Exit codes
follow one convention everywhere: 0 means the run succeeded (and any
verdict came out affirmative), 2 means a mathematical check ran and
failed (non-vanishing verdict, deviation above tolerance, hypotheses
violated, quadrature that would not converge), and 1 means the tool was
misused (bad flags, malformed JSON, unknown names).

Output is deterministic: no timestamps, sorted JSON keys, 17
significant digits in CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import specio
from .acceptance import _CRITERIA, format_results, run_all
from .analysis import (
    VANISHING,
    coefficients_vanishing,
    decay_profile,
    mean_abs,
)
from .constructions import build_example, generate_block_sum
from .errors import (
    HypothesesNotSatisfied,
    InvalidArgument,
    QuadratureError,
    TruncationTailError,
    UnknownExample,
)
from .fourier import (
    bessel_j0_check,
    exp_sum,
    ft_compact,
    rajchman_check,
    rl_crosscheck,
    series_density,
    spectral_constant,
    spectral_series,
    spectral_sinc_sq,
)
from .measures import AbsCont, FiniteAtoms, PurePoint, _check_tol, convolve_grid
from .testfunctions import tf_hat

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the convention here is 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_spec_text(value: str) -> str:
    if value.lstrip().startswith("{"):
        return value
    if os.path.exists(value):
        with open(value, "r") as fh:
            return fh.read()
    raise InvalidArgument(f"spec file not found: {value}")


def _load_measure(args: argparse.Namespace):
    if not args.spec:
        raise InvalidArgument("--spec is required for this command")
    return specio.parse_measure_spec(_load_spec_text(args.spec))


def _test_function(args: argparse.Namespace):
    return tf_hat(args.f_center, args.f_halfwidth, args.f_height, step=args.f_step)


# The most points a --grid may hold: far above the largest catalog grid
# (60,001 points), of the order of measures._MAX_ATOMS.
_MAX_GRID_POINTS = 10**7


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidArgument("--grid expects lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise InvalidArgument("--grid expects numbers lo:hi:step")
    if not all(np.isfinite((lo, hi, step))):
        raise InvalidArgument("--grid expects finite lo, hi and step")
    if step <= 0.0 or hi < lo:
        raise InvalidArgument("--grid expects lo <= hi and step > 0")
    span = (hi - lo) / step
    if not span + 1e-9 < _MAX_GRID_POINTS:  # floor(span + 1e-9) + 1 points, counted before any array
        raise InvalidArgument(f"--grid holds more than {_MAX_GRID_POINTS} points")
    n = int(np.floor(span + 1e-9))
    return lo + step * np.arange(n + 1)


def _parse_list(text: str, flag: str, kind: type = float) -> list:
    try:
        values = [kind(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise InvalidArgument(f"{flag} expects comma-separated {'numbers' if kind is float else 'integers'}")
    if not values:
        raise InvalidArgument(f"{flag} expects at least one value")
    return values


@contextlib.contextmanager
def _output(args: argparse.Namespace):
    """The --out file, opened for writing, or stdout."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _csv_field(value: object) -> str:
    """A report value as CSV text: numbers (not bools) in 17 significant
    digits, a list as its bracketed items, anything else as str."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_csv_field, value)) + "]"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return specio.fmt(value)
    return str(value)


def _finite(value: object) -> bool:
    """Whether every number in a report value (a list, an array, a scalar) is finite."""
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, (float, np.ndarray)) or bool(np.isfinite(value).all())


def _check_finite(fields: dict) -> None:
    """Refuse a report field holding inf or NaN: it is no bound or value to
    report, and JSON has no token for it (json.dumps writes Infinity)."""
    for name, value in fields.items():
        if not _finite(value):
            raise InvalidArgument(f"report field {name} is not finite")


def _emit_report(args: argparse.Namespace, report: dict, header: str, rows: Sequence[Sequence]) -> None:
    """A report as json.dumps(indent=2, sort_keys=True), or as CSV: header,
    then one line per row (drawn from the report), a field holding a comma
    quoted.  A non-finite report field is refused (_check_finite)."""
    _check_finite(report)
    with _output(args) as out:
        if args.format == "json":
            out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        else:
            out.write(header + "\n")
            csv.writer(out, lineterminator="\n").writerows([map(_csv_field, row) for row in rows])


def _json_rows(rows: list[dict]) -> str:
    """Rows of flat objects as json.dumps(indent=2) writes them as the items
    of a report's "rows", without the brackets, from one C-encoder call.
    The item separator puts each key on its own line; an encoded value holds
    no newline, so only a separator after a closing brace ends a row, and
    those are re-indented by text."""
    text = json.dumps(rows, sort_keys=True, separators=(",\n      ", ": "))
    return "\n    {\n      " + text[2:-2].replace("},\n      {", "\n    },\n    {\n      ") + "\n    }"


# Table rows formatted and written per block, so a long table never stands
# as one string.
_CSV_ROWS = 1 << 13


def _emit_table(args: argparse.Namespace, columns: dict[str, np.ndarray], **fields) -> None:
    """One table, described once as named columns of equal length.

    CSV is the column names joined as the header, then the rows; JSON is the
    scalar fields plus ``rows``, one object per row keyed by the same names,
    as json.dumps(indent=2, sort_keys=True) writes it.  Rows are written in
    blocks of _CSV_ROWS: a CSV block is specio.write_rows of the stacked
    columns (one vectorised pass, the same bytes as "%.17g" per value), a
    JSON block is _json_rows, in the place of a placeholder for ``rows``.
    A non-finite column or field is refused (_check_finite).
    """
    _check_finite({**columns, **fields})
    names = list(columns)
    with _output(args) as out:
        if args.format == "json":
            head, tail = json.dumps({**fields, "rows": "@"}, indent=2, sort_keys=True).split('"@"')
            out.write(head + "[")
        else:
            out.write(",".join(names) + "\n")
        for start in range(0, len(columns[names[0]]), _CSV_ROWS):
            block = np.column_stack([col[start : start + _CSV_ROWS] for col in columns.values()])
            if args.format == "json":
                out.write(("," if start else "") + _json_rows([dict(zip(names, row)) for row in block.tolist()]))
            else:
                specio.write_rows(out, block)
        if args.format == "json":
            out.write("\n  ]" + tail + "\n")


def _default_annulus_step(f, radii: Sequence[float]) -> float:
    # Cap the scan at ~200k sample points so huge radii stay responsive.
    return max(f.step / 2.0, 2.0 * max(radii) / 200000.0)


def _cmd_convolve(args: argparse.Namespace) -> int:
    mu = _load_measure(args)
    f = _test_function(args)
    xs = _parse_grid(args.grid)
    values = convolve_grid(mu, f, xs, tol=args.tolerance)
    _emit_table(args, {"x": xs, "re": values.real, "im": values.imag})
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """decay and rajchman: args.profile is decay_profile or rajchman_check."""
    mu = _load_measure(args)
    f = _test_function(args)
    radii = _parse_list(args.radii, "--radii")
    profile = args.profile(mu, f, radii, args.epsilon, annulus_step=_default_annulus_step(f, radii))
    report = specio.decay_report_dict(profile)
    _emit_report(args, report, "R,sup", report["entries"])
    return 0 if profile.verdict == VANISHING else 2


def _cmd_coeffs(args: argparse.Namespace) -> int:
    mu = _load_measure(args)
    if not isinstance(mu, PurePoint):
        raise InvalidArgument("coeffs expects a pure-point measure spec")
    cv = coefficients_vanishing(mu.source, args.epsilon, r_max=args.rmax)
    report = specio.coeffs_report_dict(cv)
    _emit_report(args, report, "verdict,radius,scanned", [[report["verdict"], report["radius"], report["scanned"]]])
    return 0 if cv.verdict == VANISHING else 2


def _cmd_mean(args: argparse.Namespace) -> int:
    mu = _load_measure(args)
    f = _test_function(args)
    n_list = _parse_list(args.nlist, "--nlist", int)
    report = specio.mean_report_dict(mean_abs(mu, f, n_list))
    _emit_report(args, report, "n,average", report["entries"])
    return 0


def _cmd_fourier(args: argparse.Namespace) -> int:
    ks = _parse_grid(args.grid)
    if not args.spec:
        _emit_table(args, {"k": ks, "value": series_density(ks, args.truncation)})
        return 0
    mu = _load_measure(args)
    if isinstance(mu, PurePoint) and isinstance(mu.source, FiniteAtoms):
        values = exp_sum(mu.source.positions, mu.source.weights, ks)
    elif isinstance(mu, PurePoint):
        raise InvalidArgument("fourier on a pure-point spec needs a finite_atoms builder")
    elif isinstance(mu, AbsCont):
        values = ft_compact(mu.density, ks, tol=args.tolerance)
    else:
        raise InvalidArgument("fourier expects a pure-point or absolutely continuous root")
    _emit_table(args, {"k": ks, "re": values.real, "im": values.imag})
    return 0


def _cmd_bessel(args: argparse.Namespace) -> int:
    rs = _parse_grid(args.grid)
    _check_tol(args.tolerance)
    lhs, rhs = bessel_j0_check(rs)
    deviation = np.abs(lhs - rhs)
    worst = float(deviation.max())
    _emit_table(args, {"r": rs, "lhs": lhs, "rhs": rhs, "deviation": deviation}, max_deviation=worst)
    return 0 if worst <= args.tolerance else 2


def _spectral_density(args: argparse.Namespace):
    if args.density == "const":
        return spectral_constant(1.0)
    if args.density == "sincsq":
        return spectral_sinc_sq()
    return spectral_series(args.truncation)


def _cmd_rlcheck(args: argparse.Namespace) -> int:
    mu = _load_measure(args) if args.spec else build_example("ex_sinc_series", truncation=args.truncation)
    f = _test_function(args)
    xs = _parse_grid(args.grid)
    report = rl_crosscheck(mu, _spectral_density(args), f, xs, tolerance=args.tolerance)
    direct, spectral = report.direct, report.spectral
    _emit_table(
        args,
        {
            "x": report.xs,
            "direct_re": direct.real,
            "direct_im": direct.imag,
            "spectral_re": spectral.real,
            "spectral_im": spectral.imag,
            "deviation": report.deviation,
        },
        max_deviation=report.max_deviation,
        k_window=report.k_window,
        tail_estimate=report.tail_estimate,
        quad_estimate=report.quad_estimate,
    )
    return 0 if report.max_deviation <= args.tolerance else 2


def _cmd_blocks(args: argparse.Namespace) -> int:
    if not args.spec:
        raise InvalidArgument("--spec is required for this command")
    inp = specio.parse_block_spec(_load_spec_text(args.spec))
    generated = generate_block_sum(inp, override=True)
    report = generated.report
    payload = specio.block_report_dict(report)
    if report.overall:
        payload["covered"] = [generated.covered.lo, generated.covered.hi]
        payload["n_parts"] = generated.n_parts
    _emit_report(args, payload, "field,value", sorted(payload.items()))
    return 0 if report.overall else 2


def _cmd_suite(args: argparse.Namespace) -> int:
    only = None
    if args.only:
        only = _parse_list(args.only, "--only", int)
        if not set(only) <= {index for index, *_ in _CRITERIA}:
            raise InvalidArgument(f"--only expects criterion numbers from 1 to {len(_CRITERIA)}")
    results = run_all(only=only)
    passed = sum(1 for r in results if r.passed)
    with _output(args) as out:
        out.write(format_results(results) + f"\n{passed}/{len(results)} criteria passed\n")
    return 0 if passed == len(results) else 2


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process and shared by every main
    call: parse_args reads it and keeps nothing, so callers must not change it."""
    parser = _Parser(prog="vanishkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    spec_p = argparse.ArgumentParser(add_help=False)
    spec_p.add_argument("--spec", help="measure-spec JSON, inline or a file path")

    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("--out", help="output path (default: stdout)")
    out_p.add_argument("--format", choices=("csv", "json"), default="csv")

    def f_parent(center=0.0, halfwidth=0.25, height=1.0):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--f-center", type=float, default=center)
        p.add_argument("--f-halfwidth", type=float, default=halfwidth)
        p.add_argument("--f-height", type=float, default=height)
        p.add_argument("--f-step", type=float, default=None)
        return p

    p = sub.add_parser(
        "convolve", parents=[spec_p, f_parent(), out_p], help="sample mu*f on a grid"
    )
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser(
        "decay",
        parents=[spec_p, f_parent(), out_p],
        help="annulus sup profile of mu*f; exit 2 unless it vanishes",
    )
    p.add_argument("--radii", default="50,100,200", help="comma-separated radii")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=_cmd_profile, profile=decay_profile)

    p = sub.add_parser(
        "coeffs",
        parents=[spec_p, out_p],
        help="atom-weight decay verdict for a pure-point spec",
    )
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--rmax", type=float, default=1000.0)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser(
        "mean",
        parents=[spec_p, f_parent(), out_p],
        help="averages of |mu*f| over growing centered intervals",
    )
    p.add_argument("--nlist", default="10,100,1000", help="comma-separated horizons")
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser(
        "fourier",
        parents=[spec_p, out_p],
        help="transform values on a frequency grid",
    )
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--truncation", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser(
        "bessel", parents=[out_p], help="circle-average identity table"
    )
    p.add_argument("--grid", default="0:10:0.1", help="lo:hi:step over r")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=_cmd_bessel)

    p = sub.add_parser(
        "rlcheck",
        parents=[spec_p, f_parent(halfwidth=0.5), out_p],
        help="direct vs spectral autocorrelation cross-check",
    )
    p.add_argument("--grid", default="-3:3:0.025", help="lo:hi:step")
    p.add_argument("--density", choices=("const", "sincsq", "series"), default="series")
    p.add_argument("--truncation", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_rlcheck)

    p = sub.add_parser(
        "rajchman",
        parents=[spec_p, f_parent(), out_p],
        help="decay profile of the spatial autocorrelation mu*f*(f reflected)",
    )
    p.add_argument("--radii", default="6,12,24,48", help="comma-separated radii")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=_cmd_profile, profile=rajchman_check)

    p = sub.add_parser(
        "blocks",
        parents=[spec_p, out_p],
        help="validate a block-sum description and generate the measure",
    )
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("suite", parents=[out_p], help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_suite)

    return parser


_VALUE_FLAGS = {
    "--grid", "--radii", "--nlist", "--only",
    "--f-center", "--f-halfwidth", "--f-height", "--f-step",
    "--epsilon", "--rmax", "--tolerance",
}


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Fold ``--grid -3:3:0.1`` into ``--grid=-3:3:0.1``.

    argparse would otherwise read the value as an unknown option because
    it starts with a dash.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == "."):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except (InvalidArgument, UnknownExample, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TruncationTailError as exc:
        print(f"error: frequency truncation insufficient: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return 2
    except HypothesesNotSatisfied as exc:
        print(f"error: hypotheses not satisfied: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout (``| head``): exit 1, and no flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
