"""JSON wire formats: measure specs, block specs, CSV/JSON report shapes."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vanishkit import floattext, specio
from vanishkit.constructions import build_example, ex_b_block_input, nu_block_input
from vanishkit.errors import InvalidArgument
from vanishkit.measures import PurePoint, atoms_in, convolve
from vanishkit.testfunctions import Window, tf_hat


def test_parse_named_pp_builders():
    mu = specio.parse_measure_spec('{"expr": {"kind": "pp", "builder": "ex_a"}}')
    assert atoms_in(mu, Window(0.5, 1.5)) == atoms_in(build_example("ex_a"), Window(0.5, 1.5))
    nu = specio.parse_measure_spec({"expr": {"kind": "pp", "builder": "ex_nu"}})
    assert atoms_in(nu, Window(2.9, 3.1))[0].weight == pytest.approx(1.0 / 3.0)


def test_parse_finite_atoms_complex_weights():
    mu = specio.parse_measure_spec(
        {"expr": {"kind": "pp", "builder": "finite_atoms",
                  "atoms": [[0.0, 1.0, 0.0], [3.0, 0.2, -0.1]]}}
    )
    got = atoms_in(mu, Window(-1.0, 4.0))
    assert got[1].weight == pytest.approx(0.2 - 0.1j)


def test_parse_lattice_weight_rules():
    ones = specio.parse_measure_spec(
        {"expr": {"kind": "pp", "builder": "lattice", "spacing": 2.0, "offset": 0.5}}
    )
    assert [a.position for a in atoms_in(ones, Window(0.0, 5.0))] == [0.5, 2.5, 4.5]
    harm = specio.parse_measure_spec(
        {"expr": {"kind": "pp", "builder": "lattice", "spacing": 1.0, "weights": "harmonic"}}
    )
    got = atoms_in(harm, Window(1.9, 3.1))
    assert [a.weight for a in got] == [pytest.approx(1.0 / 3.0), pytest.approx(0.25)]


def test_parse_wrapped_expression_tree():
    spec = {"expr": {"kind": "translate", "t": 1.0, "child": {
        "kind": "scale", "factor": [0.0, 1.0], "child": {
            "kind": "reflect", "child": {
                "kind": "pp", "builder": "finite_atoms", "atoms": [[2.0, 1.0, 1.0]]}}}}}
    mu = specio.parse_measure_spec(spec)
    got = atoms_in(mu, Window(-2.0, 0.0))
    assert len(got) == 1
    assert got[0].position == -1.0  # reflected to -2, translated by +1
    assert got[0].weight == pytest.approx(1j * (1.0 - 1.0j))


def test_parse_ac_builders_convolve():
    tri = specio.parse_measure_spec(
        {"expr": {"kind": "ac", "builder": "triangle", "center": 0.0,
                  "halfwidth": 1.0, "height": 2.0}}
    )
    f = tf_hat(0.0, 0.25, 1.0)
    # apex value: int hat(s) * 2 * (1 - |s|) ds = 1/2 - 1/24
    assert complex(convolve(tri, f, 0.0)).real == pytest.approx(11.0 / 24.0, abs=1e-12)
    ind = specio.parse_measure_spec(
        {"expr": {"kind": "ac", "builder": "indicator", "interval": [0.0, 2.0]}}
    )
    assert complex(convolve(ind, f, 1.0)).real == pytest.approx(0.25, abs=1e-12)


def test_parse_example_kind_with_truncation():
    mu = specio.parse_measure_spec(
        {"expr": {"kind": "example", "name": "ex_sinc_series", "truncation": 8}}
    )
    assert mu is not None


def test_parse_rejects_unknown_keys_and_kinds():
    with pytest.raises(InvalidArgument):
        specio.parse_measure_spec({"expr": {"kind": "pp", "builder": "ex_a", "extra": 1}})
    with pytest.raises(InvalidArgument):
        specio.parse_measure_spec({"expr": {"kind": "spooky"}})
    with pytest.raises(InvalidArgument):
        specio.parse_measure_spec({"not_expr": {}})
    with pytest.raises(InvalidArgument):
        specio.parse_measure_spec({"expr": {"kind": "pp", "builder": "lattice", "spacing": -1.0}})


def test_malformed_json_reports_position():
    with pytest.raises(json.JSONDecodeError) as exc:
        specio.parse_measure_spec('{"expr": \n  {"kind": }')
    assert exc.value.lineno == 2


def test_block_spec_recipes_roundtrip():
    for recipe, n in (("ex_a", 9), ("ex_nu", 7), ("ex_b", 5)):
        inp = specio.parse_block_spec(json.dumps({"recipe": recipe, "n": n}))
        wire = specio.block_input_to_dict(inp)
        back = specio.parse_block_spec(json.dumps(wire))
        assert len(back.parts) == len(inp.parts)
        assert back.window == inp.window
        assert [p.shift for p in back.parts] == [p.shift for p in inp.parts]


def test_block_spec_roundtrip_preserves_measures():
    inp = ex_b_block_input(4)
    back = specio.parse_block_spec(json.dumps(specio.block_input_to_dict(inp)))
    f = tf_hat(0.0, 0.3, 1.0)
    for orig, parsed in zip(inp.parts, back.parts):
        for x in (-0.6, 0.0, 0.4):
            assert convolve(parsed.measure, f, x) == pytest.approx(
                convolve(orig.measure, f, x), abs=1e-12
            )


def test_block_spec_explicit_parts():
    inp = specio.parse_block_spec(json.dumps({
        "window": [-0.5, 0.5],
        "gap_floor": 0.25,
        "parts": [
            {"shift": 1.0, "atoms": [[0.0, 1.0, 0.0]], "label": "a"},
            {"shift": 2.0, "densities": [{"builder": "indicator", "interval": [-0.5, 0.5], "weight": [0.5, 0.0]}]},
        ],
    }))
    assert inp.gap_floor == 0.25
    assert len(inp.parts) == 2
    assert isinstance(inp.parts[0].measure, PurePoint)


def test_block_spec_rejects_bad_shapes():
    with pytest.raises(InvalidArgument):
        specio.parse_block_spec('{"recipe": "unknown_recipe", "n": 3}')
    with pytest.raises(InvalidArgument):
        specio.parse_block_spec('{"window": [0, 1]}')  # no parts
    with pytest.raises(InvalidArgument):
        specio.parse_block_spec('{"window": [0, 1], "parts": [{"shift": 0.0}], "bogus": 1}')


def test_fmt_seventeen_significant_digits():
    assert specio.fmt(0.1) == "0.10000000000000001"
    assert specio.fmt(2.0 ** -20) == "9.5367431640625e-07"
    assert specio.fmt(1.0) == "1"
    assert float(specio.fmt(np.pi)) == np.pi  # round trips exactly


def test_header_and_write_rows_match_fmt_per_value():
    import io

    values = [0.1, -0.0, 1.0, 3, 2.0**-1074, -1e308, np.inf, -np.inf, np.nan, np.float64(np.pi), 123456789.0, 7e-5]
    rows = [values[i : i + 3] for i in range(0, len(values), 3)]
    out = io.StringIO()
    out.write("a,b,c\n")
    specio.write_rows(out, rows)
    assert out.getvalue() == "a,b,c\n" + "".join(",".join(specio.fmt(v) for v in row) + "\n" for row in rows)
    # a 2-D float block, as the table writer passes it
    block = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [2.0, -1e-300, 4096.0]])
    out = io.StringIO()
    specio.write_rows(out, block)
    assert out.getvalue() == "".join(",".join(specio.fmt(v) for v in row) + "\n" for row in block)
    empty = io.StringIO()
    empty.write("x,re,im\n")
    specio.write_rows(empty, [])
    assert empty.getvalue() == "x,re,im\n"


def _rows_by_fmt(block):
    return "".join(",".join(specio.fmt(v) for v in row) + "\n" for row in block)


def _written(block):
    out = io.StringIO()
    specio.write_rows(out, block)
    return out.getvalue()


_BITS = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.one_of(st.integers(0, 2047), st.sampled_from([0, 2047])),  # zeros, subnormals, inf and NaN often
    st.integers(0, 2**52 - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_BITS, min_size=1, max_size=96), st.integers(1, 4))
@example([0, 2**63, 1, 0x7FF << 52, 0xFFF << 52, (0x7FF << 52) | 1, 2**63 | (0x7FF << 52) | 5], 1)
def test_write_rows_is_format_17g_on_any_bit_pattern(bits, ncols):
    values = np.array(bits + [0] * (-len(bits) % ncols), dtype=np.uint64).view(np.float64)
    block = values.reshape(-1, ncols)
    assert _written(block) == _rows_by_fmt(block)


def _ulps_around(x, count):
    steps = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(count):
            y = np.nextafter(y, direction)
            steps.append(y)
    return np.concatenate(steps)


def test_write_rows_is_format_17g_on_decimal_and_dyadic_edges():
    powers = np.array([float(f"1e{j}") for j in range(-300, 301)])
    cases = [
        _ulps_around(powers, 3),  # every decade edge, 1 to 3 ulp either side
        _ulps_around(np.array([1e16, 1e17]), 12),  # where %g turns to e-notation
        np.arange(-1000.0, 1001.0),
        np.array([2.0**53 + d for d in range(-4, 5)] + [10.0**q - 1 for q in range(1, 18)] + [123456789012345678.0]),
        # dyadic values with exact ties in the 18th digit, in and out of the exact decades
        np.ldexp(np.arange(1.0, 200.0, 2.0)[:, None], -np.arange(0, 80)[None, :]).ravel(),
        np.array([-0.000101566314697265625, 2.0**-25, 3 * 2.0**-24, 0.5, 1.5, 2.5]),
    ]
    for values in cases:
        for block in (values.reshape(-1, 1), np.concatenate([values, -values]).reshape(-1, 2)):
            assert _written(block) == _rows_by_fmt(block)
    # an exact tie of the catalog tables, and every decade edge in the power
    # table's range, get their digits from the kernel
    assert not floattext._digits17(np.array([-0.000101566314697265625]))[2].any()
    assert not floattext._digits17(powers[20:-21])[2].any()  # 1e-280 to 1e279


def test_near_ties_in_inexact_decades_are_written_per_value():
    # within 1e-15 of a 17-digit tie, for |v| < 1e-6 where 10^(16-k) is not
    # a double: the double-double product rounds some of them the wrong way
    values = np.array([
        9.508396845224331e-07, 3.888475069819475e-07, 2.2422607587866907e-07, 4.9102966142601843e-08,
        4.95286445202696e-09, 4.974148370910348e-09, 4.974148370910348e-10,
    ])
    assert floattext._digits17(values)[2].all()
    block = np.concatenate([values, -values]).reshape(-1, 2)
    assert _written(block) == _rows_by_fmt(block)


def test_values_outside_the_power_table_are_written_per_value():
    values = np.array([1e-300, 1e300, 5e-324, 1.7976931348623157e308, np.nan, -np.inf])
    assert floattext._digits17(values)[2].all()
    block = np.concatenate([values, -values]).reshape(-1, 3)
    assert _written(block) == _rows_by_fmt(block)


def test_report_dict_shapes():
    from vanishkit.analysis import decay_profile, mean_abs

    mu = build_example("ex_a")
    f = tf_hat(0.0, 0.25, 1.0)
    prof = decay_profile(mu, f, [10.0, 20.0], epsilon=0.05, annulus_step=0.02)
    d = specio.decay_report_dict(prof)
    assert set(d) == {"verdict", "epsilon", "K_eps_estimate", "entries", "lip_margin"}
    assert json.loads(json.dumps(d)) == d
    trace = mean_abs(mu, f, [10, 20])
    m = specio.mean_report_dict(trace)
    assert set(m) == {"entries", "limit_estimate"}
    assert json.loads(json.dumps(m)) == m


@pytest.mark.parametrize("rows", [[1.0, 2.0, 3.0], np.zeros((2, 2, 2)), 5.0])
def test_write_rows_refuses_a_block_that_is_not_2d(rows):
    # a 1-D sequence once raised a bare IndexError from block.shape[1]
    out = io.StringIO()
    with pytest.raises(InvalidArgument, match="2-D block of rows") as exc:
        specio.write_rows(out, rows)
    assert "\n" not in str(exc.value) and out.getvalue() == ""
