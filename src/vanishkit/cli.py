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
import itertools
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import specio
from .acceptance import format_results, run_all
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
    if not span < np.iinfo(np.intp).max:
        raise InvalidArgument("--grid spans too many points")
    n = int(np.floor(span + 1e-9))
    return lo + step * np.arange(n + 1)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise InvalidArgument(f"{flag} expects comma-separated numbers")
    if not values:
        raise InvalidArgument(f"{flag} expects at least one value")
    return values


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise InvalidArgument(f"{flag} expects comma-separated integers")
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


def _emit(args: argparse.Namespace, text: str) -> None:
    with _output(args) as out:
        out.write(text)


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, byte
    for byte, for payloads whose dict keys are strings.

    With an indent, json falls back to its pure-Python encoder.  Here a list
    of nonempty containers that hold no container (the rows of a table) is
    written by the C encoder in one call, with a newline and the indentation
    of the rows' items as the item separator.  An encoded string never holds
    a newline, and only the separators between rows follow a closing
    bracket, so those are found by text and given the rows' indentation.
    """
    return _indented(payload, 1) + "\n"


def _indented(value: object, depth: int) -> str:
    """value as json.dumps(indent=2, sort_keys=True) writes it, its items indented depth levels."""
    nested = (dict, list, tuple)
    if not isinstance(value, nested) or not value:
        return json.dumps(value)
    pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        items = [json.dumps(k) + ": " + _indented(v, depth + 1) for k, v in sorted(value.items())]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    rows = [v.values() if isinstance(v, dict) else v for v in value if isinstance(v, nested) and v]
    if len(rows) < len(value) or any(issubclass(t, nested) for t in set(map(type, itertools.chain(*rows)))):
        return "[" + pad + ("," + pad).join([_indented(v, depth + 1) for v in value]) + pad[:-2] + "]"
    text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
    for close, open_ in itertools.product("]}", "[{"):
        text = text.replace(close + "," + inner + open_, pad + close + "," + pad + open_ + inner)
    return "[" + pad + text[1] + inner + text[2:-2] + pad + text[-2] + pad[:-2] + "]"


# CSV rows formatted and written per block, so a long table never stands as
# one string.
_CSV_ROWS = 1 << 13


def _emit_table(args: argparse.Namespace, columns: dict[str, np.ndarray], **fields) -> None:
    """One table, described once as named columns of equal length.

    CSV is the column names joined as the header, then the rows, written in
    blocks of _CSV_ROWS; JSON is the scalar fields plus ``rows``, one object
    per row keyed by the same names.
    """
    names = list(columns)
    if args.format == "json":
        rows = np.column_stack(list(columns.values())).tolist()
        _emit(args, _json_text({**fields, "rows": [dict(zip(names, row)) for row in rows]}))
        return
    with _output(args) as out:
        out.write(",".join(names) + "\n")
        for start in range(0, len(columns[names[0]]), _CSV_ROWS):
            block = [col[start : start + _CSV_ROWS] for col in columns.values()]
            specio.write_rows(out, np.column_stack(block).tolist())


def _emit_profile(args: argparse.Namespace, report: dict, header: str) -> None:
    """A profile report as JSON, or its ``entries`` as CSV rows under header."""
    if args.format == "json":
        _emit(args, _json_text(report))
    else:
        with _output(args) as out:
            specio.write_csv(out, header, report["entries"])


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


def _cmd_decay(args: argparse.Namespace) -> int:
    mu = _load_measure(args)
    f = _test_function(args)
    radii = _parse_floats(args.radii, "--radii")
    profile = decay_profile(
        mu, f, radii, args.epsilon, annulus_step=_default_annulus_step(f, radii)
    )
    _emit_profile(args, specio.decay_report_dict(profile), "R,sup")
    return 0 if profile.verdict == VANISHING else 2


def _cmd_coeffs(args: argparse.Namespace) -> int:
    mu = _load_measure(args)
    if not isinstance(mu, PurePoint):
        raise InvalidArgument("coeffs expects a pure-point measure spec")
    cv = coefficients_vanishing(mu.source, args.epsilon, r_max=args.rmax)
    if args.format == "json":
        _emit(args, _json_text(specio.coeffs_report_dict(cv)))
    else:
        _emit(
            args,
            "verdict,radius,scanned\n"
            f"{cv.verdict},{specio.fmt(cv.radius)},{cv.scanned}\n",
        )
    return 0 if cv.verdict == VANISHING else 2


def _cmd_mean(args: argparse.Namespace) -> int:
    mu = _load_measure(args)
    f = _test_function(args)
    n_list = _parse_ints(args.nlist, "--nlist")
    trace = mean_abs(mu, f, n_list)
    _emit_profile(args, specio.mean_report_dict(trace), "n,average")
    return 0


def _cmd_fourier(args: argparse.Namespace) -> int:
    ks = _parse_grid(args.grid)
    if args.spec:
        mu = specio.parse_measure_spec(_load_spec_text(args.spec))
        if isinstance(mu, PurePoint):
            if not isinstance(mu.source, FiniteAtoms):
                raise InvalidArgument(
                    "fourier on a pure-point spec needs a finite_atoms builder"
                )
            values = exp_sum(mu.source.positions, mu.source.weights, ks)
        elif isinstance(mu, AbsCont):
            values = ft_compact(mu.density, ks, tol=args.tolerance)
        else:
            raise InvalidArgument(
                "fourier expects a pure-point or absolutely continuous root"
            )
        _emit_table(args, {"k": ks, "re": values.real, "im": values.imag})
        return 0
    _emit_table(args, {"k": ks, "value": series_density(ks, args.truncation)})
    return 0


def _cmd_bessel(args: argparse.Namespace) -> int:
    rs = _parse_grid(args.grid)
    _check_tol(args.tolerance)
    lhs, rhs = np.array([bessel_j0_check(float(r), quad_points=512) for r in rs]).T
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
    if args.spec:
        mu = specio.parse_measure_spec(_load_spec_text(args.spec))
    else:
        mu = build_example("ex_sinc_series", truncation=args.truncation)
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


def _cmd_rajchman(args: argparse.Namespace) -> int:
    mu = _load_measure(args)
    f = _test_function(args)
    radii = _parse_floats(args.radii, "--radii")
    profile = rajchman_check(
        mu, f, radii, epsilon=args.epsilon,
        annulus_step=_default_annulus_step(f, radii),
    )
    _emit_profile(args, specio.decay_report_dict(profile), "R,sup")
    return 0 if profile.verdict == VANISHING else 2


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
    if args.format == "json":
        _emit(args, _json_text(payload))
    else:
        lines = ["field,value"]
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, float):
                value = specio.fmt(value)
            lines.append(f"{key},{value}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.overall else 2


def _cmd_suite(args: argparse.Namespace) -> int:
    only = None
    if args.only:
        only = _parse_ints(args.only, "--only")
    results = run_all(only=only)
    passed = sum(1 for r in results if r.passed)
    text = format_results(results)
    text += f"\n{passed}/{len(results)} criteria passed\n"
    _emit(args, text)
    return 0 if passed == len(results) else 2


def build_parser() -> _Parser:
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
    p.set_defaults(func=_cmd_decay)

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
    p.set_defaults(func=_cmd_rajchman)

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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
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
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
