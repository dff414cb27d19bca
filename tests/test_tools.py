"""The verdict of tools/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# ten runs of a parent: median 0.456 s, quartiles 0.45 and 0.46625 s, so an
# interquartile range of 0.01625 s, 3.6% of the median
PARENT = [0.44, 0.45, 0.45, 0.455, 0.456, 0.456, 0.46, 0.465, 0.47, 0.47]


def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parents_iqr():
    faster = [x - 0.03 for x in PARENT]
    assert verdict(PARENT, faster, "lower", 0.2) == "gain"
    # 8 of 10 pairs won: no gain, though the medians differ as much
    mixed = faster[:8] + [x + 0.01 for x in PARENT[8:]]
    assert verdict(PARENT, mixed, "lower", 0.2) == "within bound"
    # every pair won, by less than the parent's IQR
    assert verdict(PARENT, [x - 0.005 for x in PARENT], "lower", 0.2) == "within bound"
    # for a higher-is-better metric, higher runs are the gain
    assert verdict(PARENT, [x + 0.03 for x in PARENT], "higher", 0.2) == "gain"
    assert verdict(PARENT, faster, "higher", 0.2) == "within bound"


def test_beyond_bound_is_a_median_worse_by_more_than_the_relative_bound():
    assert verdict(PARENT, [x * 1.25 for x in PARENT], "lower", 0.2) == "beyond bound"
    assert verdict(PARENT, [x * 1.15 for x in PARENT], "lower", 0.2) == "within bound"
    assert verdict(PARENT, [x * 0.75 for x in PARENT], "higher", 0.2) == "beyond bound"


def test_unresolved_when_the_parents_spread_exceeds_the_bound():
    # the parent's IQR is 3.6% of its median, above a 1% bound
    assert verdict(PARENT, list(PARENT), "lower", 0.01) == "unresolved"
    # unless every run of the change beats every run of the parent
    assert verdict(PARENT, [x - 0.04 for x in PARENT], "lower", 0.01) == "gain"
    # every run below the parent's fastest, 0.44, by a median gap under its IQR
    assert verdict(PARENT, [0.4399] * 10, "lower", 0.01) == "within bound"
    # a worse median beyond the bound is reported as such, not as unresolved
    assert verdict(PARENT, [x * 1.05 for x in PARENT], "lower", 0.01) == "beyond bound"


def test_constant_runs_are_within_bound():
    ok = [107 / 116] * 10
    assert verdict(ok, list(ok), "higher", 0.005) == "within bound"
