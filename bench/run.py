"""k3walls benchmark: closed loop, one client, one process, no threads.

    python3 bench/run.py --workload wall_tables --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): `wall_tables`,
`wall_crossings` and `cli_goldens`; see bench/workloads.py.  The seed
orders the ops of every pass and draws the sampled inputs.

An untraced run (`--trace 0`) sets the workload up several times, then
makes whole passes over its op list until `--seconds` would be exceeded
(at least one), checks every output and prints the end-to-end metrics.
A traced run (`--trace 1`) spends the first half of its time on
untraced passes and the rest on traced rounds: the set-up, one pass and
a CLI probe, with spans around every public call of every layer.  It
prints the per-layer metrics, each the median over rounds of one
round's total, and the tracing overhead on `pass_s`.  The CLI probe
(bare interpreter start, `import k3walls.cli`, and `main(argv)` in
process for every golden command) runs in every traced round, so every
layer has calls on every workload.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `failed` counts ops that crashed
(an exception other than a domain error, or a CLI exit code other than
0 and 2); those also make the run incorrect.  Domain errors (ValueError,
exit code 2) are answers, counted in `fail_ratio` and `ok_ratio`.  A
full record of the run, with the environment and the output sizes, is
written to bench/out/, and the spans of a traced run next to it.  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedProbe  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
SETUPS = 5
PROBE_SPAWNS = 3
RUN_LIMIT_S = 170
MODULES = ("lattice", "charge", "walls", "crossing", "report", "svgfig", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def fresh_import():
    """Import k3walls from src/ anew, so that every set-up pays for it."""
    for name in [n for n in sys.modules if n == "k3walls" or n.startswith("k3walls.")]:
        del sys.modules[name]
    package = importlib.import_module("k3walls")
    importlib.import_module("k3walls.cli")
    if not Path(package.__file__).resolve().is_relative_to(wl.SRC):
        raise RuntimeError(f"k3walls imported from {package.__file__}, not from {wl.SRC}")
    return SimpleNamespace(**{m: sys.modules[f"k3walls.{m}"] for m in MODULES})


class Run:
    """The state of one benchmark run: results, latencies and problems."""

    def __init__(self, workload, plan, seed: int):
        self.workload = workload
        self.plan = plan
        self.rng = random.Random(seed ^ 0x5EED)
        self.probe = SpeedProbe(workload.reference)
        # scaled to the reference speed (see speed.py), and as measured
        self.latencies_ms: list[float] = []
        self.raw_latencies_ms: list[float] = []
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.attempted = 0
        self.domain_errors = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sizes: dict = {}
        self.checked = 0
        self._digests: dict = {}
        self.traced_rounds = 0

    def one_pass(self, k3, ops, tracer=None):
        """Runs every op once in seeded order and checks each result after
        timing it.  Returns the pass time, scaled and as measured: the sum
        of the op latencies, so probes and checks are not in it."""
        order = list(ops)
        self.rng.shuffle(order)
        timed = []
        sizes: Counter = Counter()
        for i, op in enumerate(order):
            self.probe.sample()
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                res = self.workload.run(k3, op)
            except wl.DomainError as exc:
                res = exc.args[0]
                self.domain_errors += 1
            except Exception:  # a crash is recorded, and the run goes on to report it
                res = None
                self.failed += 1
                self.problems.append(f"op {op} crashed:\n{traceback.format_exc()}")
            timed.append((t0, perf_counter() - t0))
            self.attempted += 1
            if res is not None:
                if tracer is not None:
                    tracer.paused = True
                self._check(k3, res)
                sizes.update(self.workload.sizes(res))
                if tracer is not None:
                    tracer.paused = False
        if not self.sizes:
            self.sizes = dict(sizes)
        elif dict(sizes) != self.sizes:
            self.problems.append(f"output sizes changed between passes: {self.sizes} -> {dict(sizes)}")
        self.probe.sample(force=True)
        scaled = [d * self.probe.scale(t0) for t0, d in timed]
        self.latencies_ms += [x * 1000 for x in scaled]
        self.raw_latencies_ms += [d * 1000 for _, d in timed]
        return sum(scaled), sum(d for _, d in timed)

    def _check(self, k3, res) -> None:
        """Checks one result, and that it repeats the first pass exactly."""
        try:
            self.workload.check(k3, res)
        except wl.CheckError as exc:
            self.problems.append(f"check failed: {exc}")
        if self._digests.setdefault(res.op, res.digest()) != res.digest():
            self.problems.append(f"op {res.op} gave a different answer than in the first pass")
        self.checked += 1


def cli_probe(k3, tracer, run: Run) -> dict:
    """Interpreter start, CLI import and in-process main() of every golden."""

    def spawn_ms(code: str) -> float:
        run.probe.sample(force=True)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT, env=wl.child_env(),
                       capture_output=True, check=True)
        elapsed = perf_counter() - t0
        run.probe.sample(force=True)
        return elapsed * run.probe.scale(t0) * 1000

    interp = statistics.median(spawn_ms("pass") for _ in range(PROBE_SPAWNS))
    imported = statistics.median(spawn_ms("import k3walls.cli") for _ in range(PROBE_SPAWNS))
    output_bytes = 0
    for name, argv in sorted(wl.golden_commands().items()):
        run.probe.sample()
        tracer.op = f"cli:{name}"
        with tracer.span(f"cli.main.{argv[0]}"):
            code, out, err = wl.run_main_in_process(k3, argv)
        expected = (wl.GOLDEN / name).read_text(encoding="utf-8")
        if (code, err, out) != (0, "", expected):
            run.problems.append(f"in-process main {argv}: exit {code}, output differs from tests/golden/{name}")
        output_bytes += len(out.encode())
    return {"cli.interp_ms": interp, "cli.import_ms": imported - interp, "cli.output_bytes": output_bytes}


def setup(run: Run):
    """SETUPS fresh set-ups; returns the last one's modules and ops, and the
    set-up times, scaled and as measured."""
    times, raw = [], []
    for _ in range(SETUPS):
        run.probe.sample(force=True)
        t0 = perf_counter()
        k3 = fresh_import()
        ops = run.workload.build(k3, run.plan)
        raw.append(perf_counter() - t0)
        run.probe.sample(force=True)
        times.append(raw[-1] * run.probe.scale(t0 + raw[-1] / 2))
    return k3, ops, times, raw


def untraced_passes(run: Run, k3, ops, seconds: float, start: float) -> None:
    """Whole passes until one more would end after `seconds` from `start`."""
    while True:
        t0 = perf_counter()
        scaled, raw = run.one_pass(k3, ops)
        run.pass_s.append(scaled)
        run.raw_pass_s.append(raw)
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            return


def end_to_end(run: Run, setup_times, pass_s, lat) -> dict:
    usage = resource.RUSAGE_CHILDREN if run.workload.name == "cli_goldens" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_s),
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": statistics.quantiles(lat, n=10)[8],
        "ok_ratio": (run.attempted - run.domain_errors - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }


def traced(run: Run, k3, ops, seconds: float, start: float, spans_path: Path) -> dict:
    """Untraced passes for half the time, then traced rounds; returns the
    per-layer metrics and writes the spans to `spans_path`."""
    untraced_passes(run, k3, ops, seconds / 2, start)
    rounds: list[dict] = []
    traced_pass_s: list[float] = []
    spans_path.write_text("")
    while True:
        t0 = perf_counter()
        tracer = tracing.Tracer()
        restore = tracing.instrument(k3, tracer)
        try:
            tracer.op = "setup"
            run.probe.sample(force=True)
            ops = run.workload.build(k3, run.plan)
            wall, _ = run.one_pass(k3, ops, tracer)
            values = cli_probe(k3, tracer, run)
        finally:
            restore()
        traced_pass_s.append(wall)
        values.update(tracing.layer_values(tracer, run.probe.scale))
        rounds.append(values)
        tracer.write(spans_path, len(rounds) - 1)
        run.traced_rounds = len(rounds)
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    untraced_s = statistics.median(run.pass_s)
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.traced_pass_s"] = statistics.median(traced_pass_s)
    metrics["trace.overhead_ratio"] = metrics["trace.traced_pass_s"] / untraced_s
    return metrics


def per_layer_units() -> dict:
    units = dict(tracing.LAYER_METRICS)
    units.update({f"cli.main_ms.{sub}": "ms" for sub in tracing.CLI_SUBCOMMANDS})
    units.update({"cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.output_bytes": "bytes"})
    units.update({"trace.untraced_pass_s": "s", "trace.traced_pass_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=wl.ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != wl.ROOT:
        return None
    return lines[1]


class OutOfTime(BaseException):  # not caught as a crashed op
    pass


def _out_of_time(signum, frame):
    raise OutOfTime(f"the run took longer than {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (wl.SRC / "k3walls", wl.GOLDEN, wl.FROZEN, wl.CLI_TESTS):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout of the repository", file=sys.stderr)
            return 2
    # Subprocesses are waited for without a timeout, because Popen.wait(timeout)
    # polls with sleeps that would be timed as latency; instead the whole run
    # ends, killing the child it waits for, if it outlives RUN_LIMIT_S.
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    sys.path.insert(0, str(wl.SRC))
    os.environ.pop("K3WALLS_FORMAT", None)
    # one CPU for the benchmark, the program and its subprocesses, so that the
    # reference work runs where the measured work runs (see speed.py)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    workload = wl.WORKLOADS[args.workload]()
    run = Run(workload, workload.plan(random.Random(args.seed)), args.seed)
    k3, ops, setup_times, raw_setup_times = setup(run)
    start = perf_counter()
    raw = {}
    if args.trace:
        metrics = traced(run, k3, ops, args.seconds, start, OUT / f"{stem}-spans.jsonl")
        units = per_layer_units()
    else:
        untraced_passes(run, k3, ops, args.seconds, start)
        metrics = end_to_end(run, setup_times, run.pass_s, run.latencies_ms)
        raw = end_to_end(run, raw_setup_times, run.raw_pass_s, run.raw_latencies_ms)
        units = END_TO_END_UNITS
    reference_ms = statistics.median(run.probe.durations) * 1000
    fail_ratio = run.domain_errors / run.attempted
    correct = not run.problems

    for problem in run.problems[:20]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(f"k3walls benchmark: workload {args.workload}, seed {args.seed}, traced {bool(args.trace)}")
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": git_commit(),
           "seed": args.seed, "traced": bool(args.trace), "seconds": args.seconds}
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':42s} {fail_ratio:14.6g} ratio  ({run.domain_errors} of {run.attempted} ops "
          f"raised a domain error; {run.failed} crashed)")
    print(f"reference work: median {reference_ms:.4g} ms over {len(run.probe.durations)} samples; "
          f"times are scaled to {run.probe.reference.nominal_s * 1000:g} ms")
    if raw:
        print("as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"samples: {len(run.pass_s)} untraced passes, {run.traced_rounds} traced rounds, "
          f"{len(run.latencies_ms)} op latencies, {len(setup_times)} set-ups")
    print("sizes per pass: " + ", ".join(f"{k} {v}" for k, v in run.sizes.items()))
    print(f"checks: {run.checked} results checked, {len(run.problems)} problems")

    record = {"env": env, "workload": args.workload, "correct": correct, "attempted": run.attempted,
              "domain_errors": run.domain_errors, "failed": run.failed, "fail_ratio": fail_ratio,
              "reference_ms": reference_ms, "raw_metrics": raw, "pass_s": run.pass_s,
              "raw_pass_s": run.raw_pass_s, "traced_rounds": run.traced_rounds,
              "op_latencies": len(run.latencies_ms), "setups": len(setup_times), "sizes": run.sizes, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "problems": run.problems}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
