"""End-to-end CLI tests: golden transcripts, formats, exit codes.

The files under tests/golden/ are frozen transcripts.  Regenerate one by
running the paired command and redirecting stdout, but only after
checking the change is intentional.
"""

import ast
import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import frozen
from k3walls import MukaiVector, mukai_pairing, mukai_square, report
from k3walls.cli import _fuse_negative_values, main

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "walls_n2.txt": ["walls", "--n", "2"],
    "walls_n3.txt": ["walls", "--n", "3"],
    "walls_n4.txt": ["walls", "--n", "4"],
    "walls_n8.txt": ["walls", "--n", "8"],
    "walls_n10.txt": ["walls", "--n", "10"],
    "walls_n10.json": ["walls", "--n", "10", "--format", "json"],
    "walls_n10.csv": ["walls", "--n", "10", "--format", "csv"],
    "transport_n10_m3.txt": ["transport", "--n", "10", "--m", "3"],
    "transport_n10_m3_min.txt": [
        "transport", "--n", "10", "--m", "3", "--gamma-min", "6/19",
    ],
    "path_n10_xm3.txt": ["path", "--n", "10", "--x0", "-3"],
    "path_bm_xm1_6.txt": ["path", "--vector", "0,3,-1", "--x0", "-1/6"],
    "path_n10_x0.txt": ["path", "--n", "10", "--x0", "0"],
    "cand_0_2_m1.txt": ["walls", "--vector", "0,2,-1", "--candidates"],
    "cand_0_2_m2.txt": ["walls", "--vector", "0,2,-2", "--candidates"],
    "cand_0_1_0.txt": ["walls", "--vector", "0,1,0", "--candidates"],
    "figure_n10.svg": ["figure", "--n", "10"],
    "decompose_n10_2_11.txt": ["decompose", "--n", "10", "--gamma", "2/11"],
    "decompose_n10_1_5.txt": ["decompose", "--n", "10", "--gamma", "1/5"],
    "decompose_n10_2_9.txt": ["decompose", "--n", "10", "--gamma", "2/9"],
    "decompose_n10_1_4.txt": ["decompose", "--n", "10", "--gamma", "1/4"],
    "decompose_n10_2_7.txt": ["decompose", "--n", "10", "--gamma", "2/7"],
    "decompose_n10_4_13.txt": ["decompose", "--n", "10", "--gamma", "4/13"],
    "decompose_bm_6_19.txt": ["decompose", "--vector", "0,3,-1", "--gamma", "6/19"],
    "decompose_bm_8_25.txt": ["decompose", "--vector", "0,3,-1", "--gamma", "8/25"],
    "decompose_bm_10_31.txt": ["decompose", "--vector", "0,3,-1", "--gamma", "10/31"],
    "decompose_bm_14_43.txt": ["decompose", "--vector", "0,3,-1", "--gamma", "14/43"],
}


def run_cli(argv, env=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.delenv(report.FORMAT_ENV_VAR, raising=False)
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_transcripts(name, monkeypatch):
    monkeypatch.delenv(report.FORMAT_ENV_VAR, raising=False)
    code, out, err = run_cli(GOLDEN_COMMANDS[name])
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_output_is_deterministic(monkeypatch):
    monkeypatch.delenv(report.FORMAT_ENV_VAR, raising=False)
    first = run_cli(["walls", "--n", "10", "--format", "json"])
    second = run_cli(["walls", "--n", "10", "--format", "json"])
    assert first == second


def test_json_payload_round_trips_to_text(monkeypatch):
    monkeypatch.delenv(report.FORMAT_ENV_VAR, raising=False)
    _, raw, _ = run_cli(["walls", "--n", "10", "--format", "json"])
    payload = json.loads(raw)
    text = report.render("walls", payload, "text")
    assert text == (GOLDEN / "walls_n10.txt").read_text(encoding="utf-8")


def test_csv_shape():
    _, raw, _ = run_cli(["walls", "--n", "10", "--format", "csv"])
    lines = raw.splitlines()
    assert lines[0] == "gamma,a_r,a_c,a_s,a_sq,pairing,curve_kind,center_x,radius_sq,x0,type"
    assert len(lines) == 13
    assert "\r" not in raw


def _csv_rows(raw):
    assert "\r" not in raw
    return list(csv.reader(io.StringIO(raw)))


def test_path_csv_matches_frozen_curves():
    """y^2 = radius^2 - (x0 - center)^2 from the frozen n = 10 circles."""
    x0 = Fraction(-3)
    expected = []
    for gamma, a, _, _, curve, _ in frozen.WALLS_N10:
        if curve is None or curve[0] != "c":
            continue
        _, center, radius_sq = curve
        y_sq = radius_sq - (x0 - center) ** 2
        if y_sq > 1:
            expected.append((gamma, a, y_sq))
    expected.sort(key=lambda item: -item[2])
    assert len(expected) == 6

    code, raw, _ = run_cli(["path", "--n", "10", "--x0", "-3", "--format", "csv"])
    assert code == 0
    header, *rows = _csv_rows(raw)
    assert header == ["gamma", "a_r", "a_c", "a_s", "y_sq", "y"]
    assert len(rows) == len(expected)
    for row, (gamma, a, y_sq) in zip(rows, expected):
        assert Fraction(row[0]) == gamma
        assert tuple(int(x) for x in row[1:4]) == a
        assert Fraction(row[4]) == y_sq
        assert len(row[5].split(".")[1]) == 6
        assert abs(float(row[5]) - math.sqrt(y_sq)) <= 5e-7


def test_decompose_csv_dimensions_recomputed():
    """Parts sum to v; dims are u^2 + 2 and <partial sum, u> - 1."""
    v = MukaiVector(1, 0, -9)
    code, raw, _ = run_cli(["decompose", "--n", "10", "--gamma", "2/7", "--format", "csv"])
    assert code == 0
    header, *rows = _csv_rows(raw)
    assert header == ["decomposition", "parts", "moduli_dims", "fiber_dims", "stratum_dim", "error"]
    assert len(rows) == len(frozen.DECOMPOSITIONS[(frozen.V10, Fraction(2, 7))])
    for i, (index, parts_cell, moduli_cell, fiber_cell, stratum_cell, error) in enumerate(rows, start=1):
        assert index == str(i)
        assert error == ""
        parts = [MukaiVector(*ast.literal_eval(chunk)) for chunk in parts_cell.split(" + ")]
        assert len(parts) >= 2
        zero = MukaiVector(0, 0, 0)
        assert sum(parts, zero) == v
        fibers = [mukai_pairing(sum(parts[:j], zero), parts[j]) - 1 for j in range(1, len(parts))]
        moduli = [mukai_square(u) + 2 for u in parts]
        assert [int(x) for x in moduli_cell.split()] == moduli
        assert [int(x) for x in fiber_cell.split()] == fibers
        assert int(stratum_cell) == sum(moduli) + sum(fibers)


def test_walls_json_fields():
    _, raw, _ = run_cli(["walls", "--n", "10", "--format", "json"])
    payload = json.loads(raw)
    assert payload["vector"] == [1, 0, -9]
    assert payload["complete"] is True
    assert len(payload["walls"]) == 12
    first = payload["walls"][0]
    assert first["curve"] == {"kind": "vertical_line", "x0": {"num": 0, "den": 1}}
    assert first["type"] == "divisorial"
    assert payload["surface"] == {"d": 1}


# ---------------------------------------------------------------------------
# render_json against json.dumps(indent=2)

_json_texts = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀') | st.characters(), max_size=8
)
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | _json_texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_texts, inner, max_size=4),
    max_leaves=40,
)


@given(_json_trees)
@example({"": [[], {}, [{}], {"a": [[]]}]})
def test_render_json_is_json_dumps_indent_2(tree):
    assert report.render_json(tree) == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, check",
    [
        (["walls", "--n", "10"], lambda p: p["walls"][0]["type"] == "divisorial"),
        (["transport", "--n", "10", "--m", "3"], lambda p: p["m"] == 3 and p["source_vector"] == [1, 0, -9]),
        (["walls", "--vector", "0,3,-1", "--candidates"], lambda p: p["walls"][0]["type"] == "candidate"),
        (["path", "--n", "10", "--x0", "0"], lambda p: p["on_wall"] == [{"num": 0, "den": 1}]),
        (["decompose", "--n", "10", "--gamma", "4/13"], lambda p: any("error" in e for e in p["decompositions"])),
    ],
)
def test_render_json_on_every_payload_kind(argv, check, monkeypatch):
    """The payload the command hands to render_json, against json.dumps."""
    seen = []
    real = report.render_json
    monkeypatch.setattr(report, "render_json", lambda payload: seen.append(payload) or real(payload))
    code, out, _ = run_cli([*argv, "--format", "json"], monkeypatch=monkeypatch)
    assert code == 0
    (payload,) = seen
    assert check(payload)
    assert out == json.dumps(payload, indent=2) + "\n"


def test_render_json_literals_and_other_types():
    assert report.render_json({"a": True, "b": [False, None, 1]}) == (
        '{\n  "a": true,\n  "b": [\n    false,\n    null,\n    1\n  ]\n}\n'
    )
    with pytest.raises(TypeError):
        report.render_json({"x": [0.5]})


# ---------------------------------------------------------------------------
# equation strings against the Fraction formula


def _fraction_expanded_circle(center, radius_sq):
    b, c = -2 * center, radius_sq - center * center
    if b == 0:
        lhs = "x^2 + y^2"
    else:
        term = f"{abs(b)}x" if b.denominator == 1 else f"{abs(b)} x"
        lhs = f"x^2 {'+' if b > 0 else '-'} {term} + y^2"
    return f"{lhs} = {c}"


@given(st.fractions(max_denominator=10**6), st.fractions(min_value=0, max_denominator=10**6))
@example(Fraction(0), Fraction(5))  # b = 0
@example(Fraction(3, 2), Fraction(1))  # integer b
@example(Fraction(-7), Fraction(1, 4))  # integer b, negative c
@example(Fraction(2, 3), Fraction(4, 9))  # c = 0
@example(Fraction(5, 6), Fraction(1, 9))  # negative c
def test_expanded_circle_equation(center, radius_sq):
    curve = {"kind": "semicircle", "center": report.frac_json(center), "radius_sq": report.frac_json(radius_sq)}
    assert report.curve_equation(curve, [1, 0, -9]) == _fraction_expanded_circle(center, radius_sq)


# ---------------------------------------------------------------------------
# output routing and formats


def test_frac_str_on_payload_rationals_ints_and_fractions():
    """frac_str writes what str(Fraction) writes, whether it is given a
    payload pair, an int or a Fraction."""
    values = [Fraction(a, b) for a in range(-13, 14) for b in (1, 2, 3, 7, 12, 10**20 + 1)]
    for q in values + [Fraction(-(2**70) - 1, 3**40)]:
        assert report.frac_str(report.frac_json(q)) == str(q)
        assert report.frac_str(q) == str(q)
    for k in (0, 1, -1, 17, -(10**30)):
        assert report.frac_str(k) == str(k)
        assert report.frac_str({"num": k, "den": 1}) == str(k)


def test_output_flag_writes_file(tmp_path, monkeypatch):
    monkeypatch.delenv(report.FORMAT_ENV_VAR, raising=False)
    target = tmp_path / "walls.txt"
    code, out, _ = run_cli(["walls", "--n", "10", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == (GOLDEN / "walls_n10.txt").read_text(
        encoding="utf-8"
    )


def test_output_to_missing_directory_exits_two(tmp_path):
    target = tmp_path / "missing" / "walls.txt"
    code, out, err = run_cli(["walls", "--n", "5", "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_format_env_variable(monkeypatch):
    code, out, _ = run_cli(
        ["walls", "--n", "10"], env={report.FORMAT_ENV_VAR: "json"}, monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out)["vector"] == [1, 0, -9]


def test_format_flag_overrides_env(monkeypatch):
    code, out, _ = run_cli(
        ["walls", "--n", "10", "--format", "text"],
        env={report.FORMAT_ENV_VAR: "json"},
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.startswith("Walls for v = (1, 0, -9)")


def test_unknown_env_format_falls_back_to_text(monkeypatch):
    code, out, _ = run_cli(
        ["walls", "--n", "10"], env={report.FORMAT_ENV_VAR: "bogus"}, monkeypatch=monkeypatch
    )
    assert code == 0
    assert out.startswith("Walls for v = (1, 0, -9)")


def test_svg_env_format_falls_back_to_text(monkeypatch):
    # svg is figure's format only; as a table default it means text
    code, out, _ = run_cli(
        ["walls", "--n", "4"], env={report.FORMAT_ENV_VAR: "svg"}, monkeypatch=monkeypatch
    )
    assert code == 0
    assert out.startswith("Walls for v = (1, 0, -3)")
    code, _, err = run_cli(["walls", "--n", "4", "--format", "svg"], monkeypatch=monkeypatch)
    assert code == 2
    assert "format 'svg' is not valid for walls output" in err


# ---------------------------------------------------------------------------
# figure


def _arc_count(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    return sum(
        1
        for el in root.iter(f"{ns}path")
        if " A " in el.attrib.get("d", "")
    )


def test_figure_is_valid_svg_with_one_arc_per_visible_wall():
    _, svg, _ = run_cli(["figure", "--n", "10"])
    assert _arc_count(svg) == 7


def test_figure_window_clips_walls():
    _, svg, _ = run_cli(
        ["figure", "--vector", "0,3,-1", "--xrange", "-2,1.5"]
    )
    assert _arc_count(svg) == 4


def test_figure_axes_only_when_no_walls():
    _, svg, _ = run_cli(["figure", "--vector", "0,1,0", "--candidates"])
    assert _arc_count(svg) == 0
    ET.fromstring(svg)


def _tick_labels(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    return [int(el.text) for el in root.iter(f"{ns}text") if el.attrib.get("text-anchor") == "middle"]


@pytest.mark.parametrize(
    "xrange,step",
    [("0,1e5", 5000), ("0,1e6", 50000), ("-1e300,-1e299", 5 * 10**298)],
    ids=["1e5", "1e6", "1e300"],
)
def test_figure_wide_window_has_few_ticks(xrange, step):
    code, svg, _ = run_cli(["figure", "--n", "10", f"--xrange={xrange}"])
    assert code == 0
    lo, hi = (float(x) for x in xrange.split(","))
    slack = (hi - lo) * 1e-9  # float rounding of the window ends
    ticks = _tick_labels(svg)
    assert 2 <= len(ticks) <= 21
    assert all(t % step == 0 and lo - slack <= t <= hi + slack for t in ticks)
    assert [b - a for a, b in zip(ticks, ticks[1:])] == [step] * (len(ticks) - 1)
    assert len(svg) < 20000


def test_figure_ticks_on_a_default_window():
    # the fitted window of S^[60] is about 66 wide
    _, svg, _ = run_cli(["figure", "--n", "60"])
    ticks = _tick_labels(svg)
    assert len(ticks) <= 21 and all(t % 5 == 0 for t in ticks)


@pytest.mark.parametrize("window", ["--xrange=-1e308,1e308", "--yrange=-1e308,1e308"])
def test_figure_rejects_infinite_window_width(window):
    code, out, err = run_cli(["figure", "--n", "10", window])
    assert code == 2
    assert out == ""
    assert "finite width" in err


def test_figure_rejects_non_svg_format():
    code, _, err = run_cli(["figure", "--n", "10", "--format", "csv"])
    assert code == 2
    assert "svg only" in err


# ---------------------------------------------------------------------------
# exit codes


def test_empty_result_still_exits_zero():
    code, out, _ = run_cli(["path", "--n", "10", "--x0", "9"])
    assert code == 0
    assert "(no crossings)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["walls"],
        ["walls", "--n", "1"],
        ["walls", "--n", "10", "--precision", "0"],
        ["walls", "--n", "10", "--degree", "0"],
        ["walls", "--vector", "1,2"],
        ["walls", "--n", "10", "--format", "bogus"],
        ["path", "--n", "10"],
        ["decompose", "--n", "10"],
        ["decompose", "--n", "10", "--gamma", "2/11", "--wall-index", "0"],
        ["transport", "--n", "10"],
        ["walls", "--n", "10", "--ymin", "one"],
        ["figure", "--n", "10", "--xrange", "0,1e400"],
    ],
)
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["decompose", "--n", "10", "--gamma", "1/2"], "available slopes"),
        (["decompose", "--n", "10", "--wall-index", "99"], "out of range"),
        (["decompose", "--n", "10", "--gamma", "2/11", "--parts-max", "1"], "at least 2"),
        (["decompose", "--n", "10", "--gamma", "1/3"], "semicircular"),
        # checked before the search, which fails for n = 22
        (["decompose", "--n", "22", "--wall-index", "0", "--parts-max", "1"], "--parts-max must be at least 2"),
        (["walls", "--vector", "0,2,-1", "--candidates", "--ymin", "0"], "give r_max"),
        # the cone bound is searched first, so a large n answers at once
        (["walls", "--n", "32000", "--rmax", "1"], "no movable-cone boundary class found for n=32000"),
        # checked before the search, which finds no wall at slope 1/2
        (["decompose", "--vector", "0,2,-2", "--gamma", "1/2"], "decompose needs a primitive vector; (0, 2, -2) is 2 x (0, 1, -1)"),
    ],
)
def test_domain_errors_exit_two_with_message(argv, needle):
    code, _, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error: ")
    assert needle in err


def test_strict_complete_exit_three():
    code, out, _ = run_cli(["walls", "--n", "10", "--rmax", "1", "--strict-complete"])
    assert code == 3
    assert "complete: no" in out
    code, out, _ = run_cli(["walls", "--n", "10", "--rmax", "1"])
    assert code == 0
    assert "complete: no" in out


def test_candidate_cap_below_bound_exits_three():
    # the proven rank bound of (0, 2, -1) at --ymin 1 is 2
    code, out, _ = run_cli(["walls", "--vector", "0,2,-1", "--candidates", "--rmax", "1", "--strict-complete"])
    assert code == 3
    assert "complete: no" in out
    code, out, _ = run_cli(["walls", "--vector", "0,2,-1", "--candidates", "--rmax", "2", "--strict-complete"])
    assert code == 0
    assert "complete: yes" in out


def test_negative_vector_reaches_the_search():
    code, out, err = run_cli(["walls", "--vector", "-1,0,9"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "no wall enumeration" in err


def test_negative_zero_vector_component(monkeypatch):
    monkeypatch.delenv(report.FORMAT_ENV_VAR, raising=False)
    code, out, _ = run_cli(["walls", "--vector", "-0,3,-1"])
    assert code == 0
    assert out == run_cli(["walls", "--vector", "0,3,-1"])[1]


def test_decompose_by_wall_index():
    _, by_gamma, _ = run_cli(["decompose", "--n", "10", "--gamma", "2/11"])
    _, by_index, _ = run_cli(["decompose", "--n", "10", "--wall-index", "1"])
    assert by_index == by_gamma


# ---------------------------------------------------------------------------
# argv preprocessing


def test_fuse_negative_values():
    assert _fuse_negative_values(["--x0", "-1/6"]) == ["--x0=-1/6"]
    assert _fuse_negative_values(["--xrange", "-8,0"]) == ["--xrange=-8,0"]
    assert _fuse_negative_values(["--x0", "3"]) == ["--x0", "3"]
    assert _fuse_negative_values(["--vector", "-1,0,1"]) == ["--vector=-1,0,1"]
    assert _fuse_negative_values(["--x0"]) == ["--x0"]
    assert _fuse_negative_values(["--x0", "-"]) == ["--x0", "-"]
    assert _fuse_negative_values(["--x0", "--help"]) == ["--x0", "--help"]
