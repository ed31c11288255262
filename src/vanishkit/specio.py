"""Measure-spec JSON parsing and deterministic CSV/JSON report emission.

The measure-spec wire format is ``{"expr": {"kind": ...}}`` where kind is
one of pp, ac, example, translate, reflect, scale, sum.  Unknown keys or
kinds are rejected with a path to the offending entry.  All emitters format
floats with 17 significant digits and produce byte-identical output for
identical inputs.
"""

from __future__ import annotations

import json
import math
from typing import Any, IO, Sequence

import numpy as np

from .analysis import CoefficientVerdict, DecayProfile, MeanTrace
from .constructions import (
    BlockSumInput,
    HypothesisReport,
    build_example,
    ex_a_block_input,
    ex_b_block_input,
    nu_block_input,
)
from .errors import InvalidArgument
from .floattext import fmt, lines
from .measures import (
    AbsCont,
    ConstantDensity,
    FiniteAtoms,
    IndicatorDensity,
    LatticeComb,
    MeasureExpr,
    PurePoint,
    ReflectConj,
    Scale,
    Sum,
    Translate,
    TriangleDensity,
)
from .testfunctions import Window

__all__ = [
    "parse_measure_spec",
    "parse_block_spec",
    "block_input_to_dict",
    "fmt",
    "write_rows",
    "decay_report_dict",
    "mean_report_dict",
    "coeffs_report_dict",
    "block_report_dict",
]


def _reject_unknown(d: Any, allowed: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise InvalidArgument(f"expected an object at {where}")
    extra = set(d) - allowed
    if extra:
        raise InvalidArgument(f"unknown key(s) {sorted(extra)} in {where}")


def _require(d: dict, key: str, where: str) -> Any:
    if key not in d:
        raise InvalidArgument(f"missing key {key!r} in {where}")
    return d[key]


def _as_float(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InvalidArgument(f"expected a number in {where}, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise InvalidArgument(f"expected a finite number in {where}, got {v!r}")
    return x


def _as_int(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidArgument(f"expected an integer in {where}, got {v!r}")
    return v


def _as_list(v: Any, where: str, n: int | None = None) -> list:
    if not isinstance(v, list) or (n is not None and len(v) != n):
        shape = "a list" if n is None else f"a list of {n}"
        raise InvalidArgument(f"expected {shape} in {where}, got {v!r}")
    return v


def _floats(v: Any, n: int, where: str) -> tuple[float, ...]:
    """A list of exactly n finite numbers."""
    return tuple(_as_float(x, where) for x in _as_list(v, where, n))


def _atom_rows(v: Any, where: str) -> list[tuple[float, complex]]:
    """A list of [p, re, im] rows as (position, weight) atoms."""
    rows = _as_list(v, where)
    atoms = [_floats(row, 3, f"{where}[{i}]") for i, row in enumerate(rows)]
    return [(p, complex(re, im)) for p, re, im in atoms]


_WEIGHT_RULES = {
    "ones": lambda n: np.ones(n.shape, dtype=np.complex128),
    "harmonic": lambda n: (1.0 / (1.0 + np.abs(n))).astype(np.complex128),
}


def _parse_pp(d: dict, where: str) -> MeasureExpr:
    builder = _require(d, "builder", where)
    if builder == "ex_a" or builder == "ex_nu":
        _reject_unknown(d, {"kind", "builder"}, where)
        return build_example(builder)
    if builder == "finite_atoms":
        _reject_unknown(d, {"kind", "builder", "atoms"}, where)
        return PurePoint(FiniteAtoms(_atom_rows(_require(d, "atoms", where), where + ".atoms")))
    if builder == "lattice":
        _reject_unknown(d, {"kind", "builder", "spacing", "offset", "weights"}, where)
        spacing = _as_float(d.get("spacing", 1.0), where)
        offset = _as_float(d.get("offset", 0.0), where)
        rule = d.get("weights", "ones")
        if rule not in _WEIGHT_RULES:
            raise InvalidArgument(f"unknown lattice weights {rule!r} in {where}")
        return PurePoint(LatticeComb(spacing, offset, _WEIGHT_RULES[rule]))
    raise InvalidArgument(f"unknown pp builder {builder!r} in {where}")


def _parse_ac(d: dict, where: str) -> MeasureExpr:
    builder = _require(d, "builder", where)
    if builder in ("ex_bf", "ex_tent", "j0_radial"):
        _reject_unknown(d, {"kind", "builder"}, where)
        return build_example(builder)
    if builder == "indicator":
        _reject_unknown(d, {"kind", "builder", "interval"}, where)
        a, b = _floats(_require(d, "interval", where), 2, where + ".interval")
        return AbsCont(IndicatorDensity(a, b))
    if builder == "triangle":
        _reject_unknown(d, {"kind", "builder", "center", "halfwidth", "height"}, where)
        return AbsCont(
            TriangleDensity(
                _as_float(d.get("center", 0.0), where),
                _as_float(d.get("halfwidth", 1.0), where),
                _as_float(d.get("height", 1.0), where),
            )
        )
    if builder == "constant":
        _reject_unknown(d, {"kind", "builder", "value", "support"}, where)
        sup = None
        if "support" in d:
            sup = Window(*_floats(d["support"], 2, where + ".support"))
        return AbsCont(ConstantDensity(_as_float(d.get("value", 1.0), where), sup))
    raise InvalidArgument(f"unknown ac builder {builder!r} in {where}")


def _parse_expr(d: Any, where: str) -> MeasureExpr:
    if not isinstance(d, dict):
        raise InvalidArgument(f"expected an object at {where}")
    kind = _require(d, "kind", where)
    if kind == "pp":
        return _parse_pp(d, where)
    if kind == "ac":
        return _parse_ac(d, where)
    if kind == "example":
        _reject_unknown(d, {"kind", "name", "truncation"}, where)
        name = _require(d, "name", where)
        trunc = d.get("truncation")
        if trunc is not None:
            trunc = _as_int(trunc, where + ".truncation")
        return build_example(name, trunc)
    if kind == "translate":
        _reject_unknown(d, {"kind", "t", "child"}, where)
        return Translate(_as_float(_require(d, "t", where), where), _parse_expr(_require(d, "child", where), where + ".child"))
    if kind == "reflect":
        _reject_unknown(d, {"kind", "child"}, where)
        return ReflectConj(_parse_expr(_require(d, "child", where), where + ".child"))
    if kind == "scale":
        _reject_unknown(d, {"kind", "factor", "child"}, where)
        factor = _require(d, "factor", where)
        if isinstance(factor, list):
            c = complex(*_floats(factor, 2, where + ".factor"))
        else:
            c = complex(_as_float(factor, where), 0.0)
        return Scale(c, _parse_expr(_require(d, "child", where), where + ".child"))
    if kind == "sum":
        _reject_unknown(d, {"kind", "children"}, where)
        children = _require(d, "children", where)
        if not isinstance(children, list) or not children:
            raise InvalidArgument(f"sum children in {where} must be a nonempty list")
        return Sum(tuple(_parse_expr(c, f"{where}.children[{i}]") for i, c in enumerate(children)))
    raise InvalidArgument(f"unknown expr kind {kind!r} in {where}")


def parse_measure_spec(spec: str | dict) -> MeasureExpr:
    """Parse a measure spec from JSON text or an already-decoded dict.

    Malformed JSON raises json.JSONDecodeError (with line/column); schema
    violations raise InvalidArgument naming the offending path.
    """
    d = json.loads(spec) if isinstance(spec, str) else spec
    if not isinstance(d, dict):
        raise InvalidArgument("measure spec must be a JSON object")
    _reject_unknown(d, {"expr"}, "spec")
    return _parse_expr(_require(d, "expr", "spec"), "expr")


# ---------------------------------------------------------------------------
# Block-sum input wire format
# ---------------------------------------------------------------------------

_BLOCK_RECIPES = {
    "ex_a": ex_a_block_input,
    "ex_nu": nu_block_input,
    "ex_b": ex_b_block_input,
}


_MAX_SHIFT = 2.0**1022  # so that every gap between two shifts is finite


def parse_block_spec(spec: str | dict) -> BlockSumInput:
    """Parse a block-sum input: a named recipe or explicit parts.

    Recipe form: {"recipe": "ex_a"|"ex_nu"|"ex_b", "n": int}.  Explicit
    form: {"window": [lo, hi], "parts": [{"shift": t, "atoms": [[p, re,
    im], ...], "densities": [{"builder": "indicator", "interval": [a, b],
    "weight": [re, im]}, ...]}, ...]} with optional gap_floor and
    pairing_tol.  The atoms go into the input's columns and the densities
    into its part expressions.  A shift beyond 2^1022 in magnitude is
    refused.
    """
    d = json.loads(spec) if isinstance(spec, str) else spec
    if not isinstance(d, dict):
        raise InvalidArgument("block spec must be a JSON object")
    if "recipe" in d:
        _reject_unknown(d, {"recipe", "n"}, "block spec")
        name = d["recipe"]
        if name not in _BLOCK_RECIPES:
            raise InvalidArgument(f"unknown block recipe {name!r}")
        return _BLOCK_RECIPES[name](_as_int(_require(d, "n", "block spec"), "block spec n"))
    _reject_unknown(d, {"window", "parts", "gap_floor", "pairing_tol"}, "block spec")
    window = Window(*_floats(_require(d, "window", "block spec"), 2, "window"))
    positions: list[float] = []
    weights: list[complex] = []
    counts: list[int] = []
    shifts: list[float] = []
    labels: list[str] = []
    exprs: list[MeasureExpr | None] = []
    for i, pd in enumerate(_as_list(_require(d, "parts", "block spec"), "parts")):
        where = f"parts[{i}]"
        _reject_unknown(pd, {"shift", "atoms", "densities", "label"}, where)
        shift = _as_float(_require(pd, "shift", where), where)
        if abs(shift) > _MAX_SHIFT:
            raise InvalidArgument(f"shift {shift!r} in {where} exceeds 2^1022 in magnitude")
        shifts.append(shift)
        atoms = _atom_rows(pd.get("atoms", []), where + ".atoms")
        densities: list[MeasureExpr] = []
        for j, dd in enumerate(_as_list(pd.get("densities", []), where + ".densities")):
            dwhere = f"{where}.densities[{j}]"
            _reject_unknown(dd, {"builder", "interval", "weight"}, dwhere)
            if _require(dd, "builder", dwhere) != "indicator":
                raise InvalidArgument(f"only indicator densities supported in {dwhere}")
            a, b = _floats(_require(dd, "interval", dwhere), 2, dwhere + ".interval")
            wre, wim = _floats(dd.get("weight", [1.0, 0.0]), 2, dwhere + ".weight")
            densities.append(AbsCont(IndicatorDensity(a, b, complex(wre, wim))))
        if not atoms and not densities:
            raise InvalidArgument(f"{where} has neither atoms nor densities")
        positions += [p for p, _ in atoms]
        weights += [w for _, w in atoms]
        counts.append(len(atoms))
        labels.append(str(pd.get("label", "")))
        exprs.append(None if not densities else densities[0] if len(densities) == 1 else Sum(tuple(densities)))
    kwargs = {}
    if "gap_floor" in d:
        kwargs["gap_floor"] = _as_float(d["gap_floor"], "block spec")
    if "pairing_tol" in d:
        kwargs["pairing_tol"] = _as_float(d["pairing_tol"], "block spec")
    return BlockSumInput.from_columns(window, positions, weights, counts, shifts, labels, exprs, **kwargs)


def block_input_to_dict(inp: BlockSumInput) -> dict:
    """Serialize a block-sum input with explicit atom/density lists.

    Only pure-atom and indicator-density parts round-trip; anything else
    raises.
    """
    parts_out = []
    for part in inp.parts:
        atoms: list[list[float]] = []
        densities: list[dict] = []

        def collect(node: MeasureExpr, scale: complex) -> None:
            if isinstance(node, PurePoint) and isinstance(node.source, FiniteAtoms):
                for p, w in zip(node.source.positions, node.source.weights):
                    ww = scale * w
                    atoms.append([float(p), float(ww.real), float(ww.imag)])
            elif isinstance(node, AbsCont) and isinstance(node.density, IndicatorDensity):
                ww = scale * node.density.value
                densities.append(
                    {
                        "builder": "indicator",
                        "interval": [node.density.support.lo, node.density.support.hi],
                        "weight": [float(ww.real), float(ww.imag)],
                    }
                )
            elif isinstance(node, Scale):
                collect(node.child, scale * node.c)
            elif isinstance(node, Sum):
                for c in node.children:
                    collect(c, scale)
            else:
                raise InvalidArgument(
                    f"cannot serialize part node {type(node).__name__}"
                )

        collect(part.measure, 1.0 + 0.0j)
        entry: dict[str, Any] = {"shift": part.shift}
        if atoms:
            entry["atoms"] = atoms
        if densities:
            entry["densities"] = densities
        if part.label:
            entry["label"] = part.label
        parts_out.append(entry)
    return {
        "window": [inp.window.lo, inp.window.hi],
        "parts": parts_out,
        "gap_floor": inp.gap_floor,
        "pairing_tol": inp.pairing_tol,
    }


# ---------------------------------------------------------------------------
# Deterministic emission
# ---------------------------------------------------------------------------


_CHUNK = 2**13  # values per floattext.lines call: bounds the kernel's memory


def write_rows(out: IO[str], rows: np.ndarray | Sequence[Sequence[float]]) -> None:
    """One line per row of a 2-D float block: its values as fmt writes them
    (format(v, ".17g"), byte for byte), joined by commas, from the
    vectorised kernel floattext.lines, _CHUNK values at a time."""
    block = np.asarray(rows, dtype=float)
    if block.size:
        if block.ndim != 2:
            raise InvalidArgument(f"write_rows takes a 2-D block of rows, got a {block.ndim}-D array")
        step = max(1, _CHUNK // block.shape[1])
        for start in range(0, len(block), step):
            out.write(lines(block[start : start + step]))


def decay_report_dict(profile: DecayProfile) -> dict:
    return {
        "verdict": profile.verdict,
        "epsilon": profile.epsilon,
        "K_eps_estimate": profile.k_eps_estimate,
        "entries": [[r, s] for r, s in profile.entries],
        "lip_margin": profile.lip_margin,
    }


def mean_report_dict(trace: MeanTrace) -> dict:
    return {
        "entries": [[n, avg] for n, avg in trace.entries],
        "limit_estimate": trace.limit_estimate,
    }


def coeffs_report_dict(cv: CoefficientVerdict) -> dict:
    return {"verdict": cv.verdict, "radius": cv.radius, "scanned": cv.scanned}


def block_report_dict(report: HypothesisReport) -> dict:
    return {
        "h_support": report.h_support,
        "support_offender": report.support_offender,
        "h_bounded": report.h_bounded,
        "sup_variation": report.sup_variation,
        "h_vague_null": report.h_vague_null,
        "worst_pairing": report.worst_pairing,
        "h_udiscrete": report.h_udiscrete,
        # undefined (None) with fewer than two shifts, where the report holds inf
        "min_shift_gap": report.min_shift_gap if report.min_shift_gap < math.inf else None,
        "overall": report.overall,
    }
