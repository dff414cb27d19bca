"""End-to-end CLI tests: golden transcripts, formats, exit codes.

The files under tests/golden/ are frozen transcripts.  Regenerate one by
running the paired command and redirecting stdout, but only after
checking the change is intentional.
"""

import argparse
import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import frozen
from k3walls import MukaiVector, decompositions, hilbert_vector, mukai_pairing, mukai_square, report, resolve_walls
from k3walls.cli import _fuse_negative_values, build_parser, main

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


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_transcripts(name):
    code, out, err = run_cli(GOLDEN_COMMANDS[name])
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN_COMMANDS if name.startswith("decompose_")))
def test_decompose_goldens_are_not_cut_by_parts_max(name):
    """The default parts_max 3 of each decompose golden lists every
    decomposition: each part has charge L(u) = den*c_u - num*r_u at the
    apex x = num/den of the same sign as L(v) and nonzero, so a
    decomposition has at most |L(v)| parts."""
    argv = GOLDEN_COMMANDS[name]
    opts = dict(zip(argv[1::2], argv[2::2]))
    assert "--parts-max" not in opts
    v = hilbert_vector(int(opts["--n"])) if "--n" in opts else MukaiVector.coerce(opts["--vector"].split(","))
    wall = next(rec for rec in resolve_walls(v).records if rec.gamma == Fraction(opts["--gamma"]))
    num, den = wall.curve.center_x.as_integer_ratio()
    bound = abs(den * v.c - num * v.r)
    assert bound > 3
    assert decompositions(v, wall, parts_max=3) == decompositions(v, wall, parts_max=bound)


def _option_variables() -> dict:
    """K3WALLS_<OPTION> for every option of every subcommand: json for
    --format, the one option with choices, and 2 for the others."""
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        "K3WALLS_" + flag[2:].replace("-", "_").upper(): "json" if action.choices else "2"
        for sub in subs.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_output_depends_on_argv_alone(name, monkeypatch):
    """No option takes its value from the environment: with a variable
    named after each option set (the format one to json), every golden
    command still writes its golden bytes."""
    for key, value in _option_variables().items():
        monkeypatch.setenv(key, value)
    assert run_cli(GOLDEN_COMMANDS[name]) == (0, (GOLDEN / name).read_text(encoding="utf-8"), "")


def test_output_is_deterministic():
    first = run_cli(["walls", "--n", "10", "--format", "json"])
    second = run_cli(["walls", "--n", "10", "--format", "json"])
    assert first == second


def test_json_payload_round_trips_to_text():
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
    """Parts sum to v; dims are u^2 + 2 and <partial sum, u> - 1.  A chain
    with a negative fiber dimension has empty dimension cells and an
    error naming the first such step (at 4/13 of S^[10])."""
    v = MukaiVector(1, 0, -9)
    zero = MukaiVector(0, 0, 0)
    for gamma in (Fraction(2, 7), Fraction(4, 13)):
        code, raw, _ = run_cli(["decompose", "--n", "10", "--gamma", str(gamma), "--format", "csv"])
        assert code == 0
        header, *rows = _csv_rows(raw)
        assert header == ["decomposition", "parts", "moduli_dims", "fiber_dims", "stratum_dim", "error"]
        expected = dict(frozen.DECOMPOSITIONS[(frozen.V10, gamma)])
        assert len(rows) == len(expected)
        for i, (index, parts_cell, moduli_cell, fiber_cell, stratum_cell, error) in enumerate(rows, start=1):
            assert index == str(i)
            parts = [MukaiVector(*ast.literal_eval(chunk)) for chunk in parts_cell.split(" + ")]
            assert len(parts) >= 2
            assert sum(parts, zero) == v
            fibers = [mukai_pairing(sum(parts[:j], zero), parts[j]) - 1 for j in range(1, len(parts))]
            moduli = [mukai_square(u) + 2 for u in parts]
            if expected[tuple(u.as_tuple() for u in parts)] is None:
                j = next(j for j, f in enumerate(fibers) if f < 0)
                assert [moduli_cell, fiber_cell, stratum_cell] == ["", "", ""]
                assert error == (
                    f"negative fiber dimension {fibers[j]} at part {parts[j + 1].as_tuple()}; "
                    "the extension stratum is not effective"
                )
                continue
            assert error == ""
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
    code, out, _ = run_cli([*argv, "--format", "json"])
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


def _fraction_centered_circle(center, radius_sq):
    if center == 0:
        lhs = "x^2 + y^2"
    else:
        lhs = f"(x {'-' if center > 0 else '+'} {abs(center)})^2 + y^2"
    return f"{lhs} = {radius_sq}"


@given(st.fractions(max_denominator=10**6), st.fractions(min_value=0, max_denominator=10**6))
@example(Fraction(0), Fraction(2))  # centre 0, as for walls --vector 0,2,0 --candidates
@example(Fraction(1, 6), Fraction(325, 36))
@example(Fraction(-3), Fraction(4))  # integer centre
def test_centered_circle_equation(center, radius_sq):
    curve = {"kind": "semicircle", "center": report.frac_json(center), "radius_sq": report.frac_json(radius_sq)}
    assert report.curve_equation(curve, [0, 3, -1]) == _fraction_centered_circle(center, radius_sq)


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


def test_output_flag_writes_file(tmp_path):
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
        # each option only on the subcommands that use it
        ["walls", "--n", "10", "--format", "svg"],
        ["figure", "--n", "10", "--format", "svg"],
        ["walls", "--n", "10", "--precision", "3"],
        ["transport", "--n", "10", "--m", "3", "--precision", "3"],
        ["decompose", "--n", "10", "--gamma", "2/11", "--precision", "3"],
        ["decompose", "--n", "10", "--gamma", "2/11", "--parts-max", "1"],
        # checked before the search, which fails for n = 22
        ["decompose", "--n", "22", "--wall-index", "0", "--parts-max", "1"],
        ["walls", "--n", "10", "--rmax", "0"],
        ["walls", "--n", "10", "--rmax", "-3"],
        # --ymin is checked where it is declared, also where no search reads it
        ["walls", "--n", "10", "--ymin", "-1"],
        ["path", "--n", "10", "--x0", "-3", "--ymin", "-1/2"],
        ["walls", "--vector", "0,2,-1", "--candidates", "--ymin", "-1"],
    ],
)
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv,last_line",
    [
        (["walls", "--vector", "1,a,2"], "k3walls walls: error: argument --vector: vector components must be integers: '1,a,2'"),
        (["figure", "--n", "10", "--xrange", "1"], "k3walls figure: error: argument --xrange: expected lo,hi - got '1'"),
        (["figure", "--n", "10", "--xrange", "a,b"], "k3walls figure: error: argument --xrange: range endpoints must be numbers: 'a,b'"),
        (["walls", "--n", "x"], "k3walls walls: error: argument --n: invalid int value: 'x'"),
    ],
)
def test_usage_errors_name_the_bad_value(argv, last_line):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert err.getvalue().splitlines()[-1] == last_line


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["decompose", "--n", "10", "--gamma", "1/2"], "available slopes"),
        (["decompose", "--n", "10", "--wall-index", "99"], "out of range"),
        (["decompose", "--n", "10", "--gamma", "1/3"], "semicircular"),
        (["walls", "--vector", "0,2,-1", "--candidates", "--ymin", "0"], "give r_max"),
        # the cone bound is searched first, so a large n answers at once
        (["walls", "--n", "32000", "--rmax", "1"], "no movable-cone boundary class found for n=32000"),
        # checked before the search, which finds no wall at slope 1/2
        (["decompose", "--vector", "0,2,-2", "--gamma", "1/2"], "decompose needs a primitive vector; (0, 2, -2) is 2 x (0, 1, -1)"),
        (["figure", "--n", "10", "--xrange", "1,0"], "figure ranges must be increasing intervals"),
        # candidate rows have no slope: name the rows --wall-index selects
        (["decompose", "--vector", "0,2,1", "--gamma", "1/2"], "none of the 6 rows has a slope, select one with --wall-index 0..5"),
        # each dispatch error names the searches that do apply
        (["walls", "--vector", "2,1,1"], "searches exist for (1, 0, 1-n) with n >= 2 and for rank-zero vectors"),
        (["walls", "--vector", "2,1,1", "--candidates"], "rank-zero vectors only, not (2, 1, 1)"),
        (["walls", "--vector", "1,0,-9", "--candidates"], "S^[10] has the exact search (hilbert_walls, --n 10)"),
        # candidate rows have no slope for --gamma-min to keep
        (["transport", "--vector", "0,2,1", "--m", "1", "--gamma-min", "0"], "--gamma-min keeps rows by slope; none of the 6 rows has one"),
        # a wall decompose cannot take is named: here the vertical line
        (["decompose", "--n", "10", "--gamma", "0"], "semicircular wall, not the vertical line x = 0"),
        (["decompose", "--n", "2", "--wall-index", "0"], "semicircular wall, not the vertical line x = 0"),
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


def test_strict_complete_needs_the_proven_rank_bound():
    """S^[16] at d = 2 has the proven bound R* = 136 > 2 * 64, so the
    default --rmax cannot certify it; --rmax 68 certifies the same rows."""
    code, out, _ = run_cli(["walls", "--n", "16", "--degree", "2", "--strict-complete"])
    assert code == 3
    assert out.endswith("complete: no\n")
    code, certified, _ = run_cli(["walls", "--n", "16", "--degree", "2", "--rmax", "68", "--strict-complete"])
    assert code == 0
    assert certified == out.replace("complete: no\n", "complete: yes\n")


def test_split_degree_four_ends_in_rank_two_lagrangian_row():
    """d = 4, n = 10: d(n-1) = 36 is a square but n - 1 is not 4m^2, so the
    cone ends at slope 2/3 in the isotropic class (-2, 3, -18)."""
    code, out, _ = run_cli(["walls", "--n", "10", "--degree", "4"])
    assert code == 0
    *_, last, status = out.splitlines()
    assert last.split() == ["2/3", "(-2,", "3,", "-18)", "0", "0", "-", "boundary_lagrangian"]
    assert status == "complete: yes"


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


def test_negative_zero_vector_component():
    code, out, _ = run_cli(["walls", "--vector", "-0,3,-1"])
    assert code == 0
    assert out == run_cli(["walls", "--vector", "0,3,-1"])[1]


def test_decompose_without_a_part_cap_is_shallow():
    # a wall with a level-1 class and 1,325 levels, in a fresh interpreter:
    # every decomposition, and no traceback on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "k3walls.cli", "decompose", "--n", "54", "--gamma", "182/1325", "--parts-max", "1000"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sum(line.startswith("decomposition ") for line in proc.stdout.splitlines()) == 27


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
