"""Alternating before/after runs of the benchmark on two checkouts.

    python3 tools/bench_pairs.py OTHER_ROOT --workload W --pairs N --seconds S [--first-seed F]

runs `bench/run.py --workload W --seed k --seconds S --trace 0` of
OTHER_ROOT and of ROOT (default: the checkout holding this script) for
k = F..F+N-1 (F = 1 by default), one run at a time, OTHER_ROOT first in
the first, third, ... pair and ROOT first in the others, so a drift of
the host over the session does not fall on one side.  N must be even:
the second of two back-to-back runs tends to read faster, so each side
runs first equally often.  Each run uses its own checkout's bench/ and
src/.

It prints every run's end-to-end metrics (the `end_to_end` names of
ROOT's BENCHMARK.json) and then, per metric, each side's median and
quartiles, the change of the median, OTHER_ROOT's interquartile range,
the number of pairs each side won (by the metric's `better` direction;
a tie counts for neither) and the verdict of `verdict` against the
metric's relative `bound`.  It exits 1 when any run is incorrect or ends
without its JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON line of one benchmark run in root, or None when it has none.

    The run gets its own process group, which is killed on the way out
    whatever happens, so no run or subprocess of one outlives this call.
    """
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired:
        out, err = "", f"no result within {4 * seconds + 300:g} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  {root}: seed {seed} gave no result line (exit {proc.returncode}): {err.strip()[-500:]}")
        return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(other: list[float], this: list[float], better: str, bound: float) -> str:
    """How this side's runs of one metric compare with the other side's,
    pair i of each list run together, for a metric whose `better` is
    "lower" or "higher" and whose relative bound is `bound`:

    - "gain": this side wins at least 9 of every 10 pairs and its median
      beats the other's by more than the other's interquartile range;
    - "beyond bound": this side's median is worse than the other's by
      more than bound times the other's median;
    - "unresolved": the other's interquartile range exceeds that bound,
      and not every run of this side beats every run of the other;
    - "within bound" otherwise.
    """
    sign = 1 if better == "lower" else -1
    this_wins = sum(sign * (b - a) < 0 for a, b in zip(other, this))
    med_other, med_this = statistics.median(other), statistics.median(this)
    q1, _, q3 = _quartiles(other)
    gap = sign * (med_other - med_this)  # > 0 when this side's median is better
    allowed = bound * abs(med_other)
    if 10 * this_wins >= 9 * len(other) and gap > q3 - q1:
        return "gain"
    if -gap > allowed:
        return "beyond bound"
    if q3 - q1 > allowed and not all(sign * (b - a) < 0 for a in other for b in this):
        return "unresolved"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_root", type=Path, help="the checkout to compare with (the parent, say)")
    parser.add_argument("root", type=Path, nargs="?", default=ROOT, help="default: this checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1, help="the seed of the first pair (default: 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    if args.pairs % 2:
        parser.error("--pairs must be even, so that each side runs first in as many pairs as the other")
    sides = {"other": args.other_root.resolve(), "this": args.root.resolve()}
    spec = json.loads((sides["this"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    print(f"other: {sides['other']}\nthis:  {sides['this']}")

    values: dict[str, dict[str, list[float]]] = {side: {name: [] for name in better} for side in sides}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.pairs):
        order = ("other", "this") if (seed - args.first_seed) % 2 == 0 else ("this", "other")
        results = {side: run_bench(sides[side], args.workload, seed, args.seconds) for side in order}
        bad = [side for side in order if results[side] is None or not results[side]["correct"]]
        if bad:  # the pair is left out of the summary
            ok = False
            print(f"pair {seed}: the {' and '.join(bad)} run is incorrect", flush=True)
            continue
        for side in order:
            metrics = {name: results[side]["metrics"][name]["value"] for name in better}
            for name, value in metrics.items():
                values[side][name].append(value)
            shown = ", ".join(f"{name} {value:.6g}" for name, value in metrics.items())
            print(f"pair {seed} {side:5s} (run {order.index(side) + 1}): {shown}", flush=True)

    print(f"\n{'metric':12s} {'other median [q1, q3]':>32s} {'this median [q1, q3]':>32s} {'change':>8s}"
          f" {'other IQR':>10s}  {'wins other/this':16s} verdict (bound)")
    for name, direction in better.items():
        other, this = values["other"][name], values["this"][name]
        pairs = list(zip(other, this))
        if not pairs:
            continue
        sign = 1 if direction == "lower" else -1
        this_wins = sum(sign * (b - a) < 0 for a, b in pairs)
        other_wins = sum(sign * (b - a) > 0 for a, b in pairs)
        (o1, med_other, o3), (t1, med_this, t3) = _quartiles(other), _quartiles(this)
        change = (med_this - med_other) / med_other * 100 if med_other else 0.0
        print(f"{name:12s} {f'{med_other:.6g} [{o1:.6g}, {o3:.6g}]':>32s} {f'{med_this:.6g} [{t1:.6g}, {t3:.6g}]':>32s}"
              f" {change:+7.2f}% {o3 - o1:10.4g}  {f'{other_wins}/{this_wins} of {len(pairs)}':16s}"
              f" {verdict(other, this, direction, bounds[name])} ({bounds[name]:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
