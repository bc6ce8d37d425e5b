"""Benchmark of the radiohamming package: three seeded workloads, end to end
and per layer.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and the CLI is run as `python -m radiohamming` with
PYTHONPATH pointing there.  With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics, recorded by spans around calls into each module.
Earlier stdout lines restate the figures for a human reader.  --smoke runs
every workload on small instances, in both modes, and checks that the
printed metric names are exactly the declared ones and that every output
is correct.  bench/METRICS.md explains the workloads and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import types
from collections import defaultdict
from contextlib import nullcontext, suppress
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "radiohamming"
LAYERS = ("graphs", "ordering", "labeling", "exceptional", "solver", "cli")

# Set-up is short next to a round, so it is repeated and its median taken.
SETUP_REPEATS = {"construct": 31, "certify": 31, "cli": 5}
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
CLI_COMMANDS = ("order", "verify", "label", "sweep", "solve")


def _pairs(record, args, result):
    g, ordering = args[0], args[1]
    record.work = len(ordering) * (g.diameter - 1)


def _solved(record, args, result):
    record.work = result.nodes_explored
    record.optimal = result.optimal


# (module, public function) -> (span name, hook recording work from the call)
TRACED = {
    ("ordering", "build_ordering"): (
        "ordering.build_ordering", lambda rec, args, res: setattr(rec, "work", len(res))),
    ("ordering", "build_blocks"): ("ordering.build_blocks", None),
    ("exceptional", "ordering_22n"): ("exceptional.ordering_22n", None),
    ("exceptional", "max_consecutive_run"): ("exceptional.max_consecutive_run", None),
    ("labeling", "verify_bijection"): ("labeling.verify_bijection", None),
    ("labeling", "check_graceful"): ("labeling.check_graceful", _pairs),
    ("labeling", "span_of_ordering"): ("labeling.span_of_ordering", None),
    ("labeling", "validate"): (
        "labeling.validate", lambda rec, args, res: setattr(rec, "work", len(args[1]))),
    ("labeling", "read_labeling_csv"): ("labeling.read_labeling_csv", None),
    ("labeling", "write_labeling_csv"): ("labeling.write_labeling_csv", None),
    ("solver", "solve"): ("solver.solve", _solved),
}


class Clock:
    """Times code in calibrated seconds.

    The host is shared, and its speed for this process changes by tens of
    percent within seconds.  Right before and right after each timed call,
    the clock times a fixed pure-Python kernel that does not touch the
    library, and scales the call's wall time by NOMINAL_S over the median
    kernel time.  A calibrated second is a second at the speed at which the
    kernel takes NOMINAL_S, as on a quiet 2-vCPU x86-64 VM with CPython 3.11.
    """

    NOMINAL_S = 0.004
    SAMPLES = 3  # per side; their median rides out bursts of a few ms

    def __init__(self):
        self._ordering = oracle.all_vertices((12, 14, 15))
        random.Random(0).shuffle(self._ordering)
        self.kernel_times = []

    def kernel(self) -> list[float]:
        """Times of SAMPLES back-to-back runs of the kernel."""
        times = []
        for _ in range(self.SAMPLES):
            start = time.perf_counter()
            oracle.greedy_labels(self._ordering, 3)
            times.append(time.perf_counter() - start)
        self.kernel_times += times
        return times

    def scale(self, before: list[float], after: list[float]) -> float:
        return self.NOMINAL_S / statistics.median(before + after)


class Tally:
    """Outcomes and per-round times of the operations run in one mode."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.times = defaultdict(list)  # op name -> calibrated s, one per round
        self.raw = defaultdict(list)  # op name -> wall-clock s, one per round
        self.rss = defaultdict(float)  # op kind -> peak child RSS in MB
        self.optimal = {}  # op name -> solver certified optimality, if any
        self.ops = {}  # op name -> the operation, in first-run order

    def run(self, op, tracer=None, modules=None):
        self.attempted += 1
        self.ops[op.name] = op
        patched = tracer.installed(modules, TRACED) if tracer else nullcontext()
        out = None
        before = self.clock.kernel()
        with patched:
            start = time.perf_counter()
            try:
                out = op.run()
                verdict = None
            except Exception:
                verdict = "raised " + traceback.format_exc(limit=-3)
            elapsed = time.perf_counter() - start
        self.times[op.name].append(elapsed * self.clock.scale(before, self.clock.kernel()))
        self.raw[op.name].append(elapsed)
        if verdict is None:
            try:
                verdict = op.check(out)
            except Exception:
                verdict = "check raised " + traceback.format_exc(limit=-3)
        if hasattr(out, "optimal"):
            self.optimal[op.name] = out.optimal
        self.rss[op.kind] = max(self.rss[op.kind], getattr(out, "rss_mb", 0.0))
        if verdict == workloads.KNOWN_DEFECT:
            self.known += 1
        elif verdict is not None:
            self.failed += 1
            print(f"FAILED {op.name}: {verdict}", file=sys.stderr)

    def wall(self, kind=None, raw=False) -> float:
        """Sum over timed operations (of one kind) of the per-round median."""
        return sum(
            statistics.median(t) for name, t in (self.raw if raw else self.times).items()
            if self.ops[name].timed and kind in (None, self.ops[name].kind)
        )


def fresh_import() -> dict:
    """Import the package from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    if not Path(modules["graphs"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"{PACKAGE} was imported from outside {SRC}")
    return modules


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(recorded: list) -> dict:
    """Per-layer figures of one traced round."""
    stats = spans.aggregate(recorded)
    empty = spans.NameStats()

    def get(name):
        return stats.get(name, empty)

    order, graceful, valid = (get("ordering.build_ordering"),
                              get("labeling.check_graceful"), get("labeling.validate"))
    solve, run = get("solver.solve"), get("exceptional.max_consecutive_run")
    values = {
        "ordering.build_ordering.s": order.s,
        "ordering.build_ordering.vertices": order.work,
        "ordering.build_ordering.ns_per_vertex": _ratio(order.s * 1e9, order.work),
        "ordering.build_blocks.s": get("ordering.build_blocks").s,
        "exceptional.ordering_22n.s": get("exceptional.ordering_22n").s,
        "labeling.verify_bijection.s": get("labeling.verify_bijection").s,
        "labeling.check_graceful.s": graceful.s,
        "labeling.check_graceful.pairs": graceful.work,
        "labeling.check_graceful.ns_per_pair": _ratio(graceful.s * 1e9, graceful.work),
        "labeling.span_of_ordering.s": get("labeling.span_of_ordering").s,
        "labeling.validate.s": valid.s,
        "labeling.validate.vertices": valid.work,
        "labeling.validate.ns_per_vertex": _ratio(valid.s * 1e9, valid.work),
        "labeling.validate.share_of_verify": _ratio(
            spans.time_inside(recorded, "labeling.validate", "cli.main.verify"),
            get("cli.main.verify").s),
        "labeling.read_labeling_csv.s": get("labeling.read_labeling_csv").s,
        "labeling.write_labeling_csv.s": get("labeling.write_labeling_csv").s,
        "exceptional.max_consecutive_run.s": run.s,
        "exceptional.max_consecutive_run.capped": run.errors.get("RunSearchBudgetError", 0),
        "exceptional.max_consecutive_run.share_of_solve": _ratio(
            spans.time_inside(recorded, "exceptional.max_consecutive_run", "solver.solve"),
            solve.s),
        "solver.solve.s": solve.s,
        "solver.solve.self_s": solve.self_s,
        "solver.nodes": solve.work,
        "solver.us_per_node": _ratio(solve.self_s * 1e6, solve.work),
        "solver.certified_frac": _ratio(solve.optimal, solve.calls),
    }
    for command in CLI_COMMANDS:
        values[f"cli.main.{command}.s"] = get(f"cli.main.{command}").s
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 tmp: str, min_rounds: int | None = None, setups: int | None = None):
    """Set up and measure one workload; returns (metrics, tallies, lines)."""
    clock = Clock()
    setup_times = []
    for _ in range(setups or SETUP_REPEATS[name]):
        before = clock.kernel()
        start = time.perf_counter()
        modules = fresh_import()
        workload = workloads.WORKLOADS[name](
            types.SimpleNamespace(**modules), seed, tmp, scale)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * clock.scale(before, clock.kernel()))

    ops, inproc, traced = Tally(clock), Tally(clock), Tally(clock)
    traced_rounds = []

    def traced_phase():
        tracer = spans.Tracer()
        for i, op in enumerate(workload.inprocess(tracer) if workload.inprocess
                               else workload.ops):
            tracer.op = i
            traced.run(op, tracer, modules)
        traced_rounds.append(tracer.spans)

    phases = [lambda: [ops.run(op) for op in workload.ops]]
    if trace:
        if workload.inprocess:
            phases.append(lambda: [inproc.run(op) for op in workload.inprocess(None)])
        phases.append(traced_phase)
    need = min_rounds or (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)
    rounds = 0
    start = time.perf_counter()
    try:
        while rounds < need or time.perf_counter() - start < seconds:
            # Alternate the order, so that what runs first does not bias the
            # traced-minus-untraced overhead.
            for phase in phases[::-1] if rounds % 2 else phases:
                phase()
            rounds += 1
    finally:
        workload.close()

    tallies = (ops, inproc, traced)
    known = ops.known / rounds
    lines = [f"workload={name} seed={seed} trace={int(trace)} rounds={rounds} "
             f"ops_per_round={len(workload.ops)} known_defects_per_round={known:g}",
             f"calibration kernel median {statistics.median(clock.kernel_times):.6f} s "
             f"(nominal {Clock.NOMINAL_S} s) over {len(clock.kernel_times)} samples"]
    if not trace:
        attempted = ops.attempted
        if workload.inprocess:
            peak = max(ops.rss.values())
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": ops.wall(),
            "peak_rss_mb": peak,
            "ok_frac": (attempted - ops.failed) / attempted,
        }
        for op in ops.ops.values():
            counts = "".join(f", {k}={getattr(op, k)}" for k in ("vertices", "pairs")
                             if getattr(op, k))
            lines.append(f"op {op.name}: {statistics.median(ops.times[op.name]):.6f} s"
                         f"{counts}{'' if op.timed else ' (not in wall_s)'}")
        # Figures that are 0 on some workload, or exist on one only, so they
        # cannot be end-to-end metrics; the traced run records most of them.
        extra = [("wall_s_uncalibrated", ops.wall(raw=True), "s", "lower"),
                 ("failed_frac", ops.failed / attempted, "ratio", "lower")]
        if ops.optimal:
            extra.append(("certified_frac", sum(ops.optimal.values()) / len(ops.optimal),
                          "ratio", "higher"))
        if workload.inprocess:
            extra.append(("order_s", ops.wall("order"), "s", "lower"))
            extra.append(("verify_s", ops.wall("verify"), "s", "lower"))
        extra.append(("src_lines", src_lines(), "count", "lower"))
        lines += [metric_line(*m) for m in extra]
        return metrics, tallies, lines

    per_round = [span_metrics(recorded) for recorded in traced_rounds]
    metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    baseline = inproc if workload.inprocess else ops
    metrics["trace.overhead_s"] = traced.wall() - baseline.wall()
    metrics["cli.startup_s"] = ops.wall() - inproc.wall() if workload.inprocess else 0.0
    metrics["cli.order.child_s"] = ops.wall("order")
    metrics["cli.verify.child_s"] = ops.wall("verify")
    metrics["cli.order.child_rss_mb"] = ops.rss["order"]
    metrics["cli.known_defects"] = known
    metrics["src_lines"] = src_lines()
    # Where the time goes, for the two claims the workloads' design rests on.
    if metrics["solver.solve.s"]:
        share = metrics["exceptional.max_consecutive_run.share_of_solve"]
        lines.append(f"attribution: exceptional.max_consecutive_run is {share:.0%} "
                     "of solver.solve")
    if metrics["cli.main.verify.s"]:
        largest = spans.largest_inside(traced_rounds[-1], "cli.main.verify")
        lines.append(f"attribution: largest span inside cli.main.verify is {largest}")
    return metrics, tallies, lines


def metric_line(name: str, value: float, unit: str, better: str) -> str:
    return f"{name} {value:.6g} {unit} ({better} is better)"


def result_json(metrics: dict, tallies, declared: dict) -> dict:
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} are printed but not "
            "declared in BENCHMARK.json, or declared but not printed")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in metrics.items()},
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def smoke(tmp: str) -> int:
    """Every workload on small instances, in both modes: the printed metric
    names must be the declared ones, and no output may be wrong."""
    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            metrics, tallies, _ = run_workload(
                name, 1, 0.0, trace, "small", tmp, min_rounds=1, setups=1)
            result = result_json(metrics, tallies, declared_metrics(trace))
            known = sum(t.known for t in tallies)
            ok = result["correct"]
            bad += not ok
            print(f"smoke {name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"known_defects={known}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Unwind on SIGTERM too, so the finally blocks stop the launcher and
    # remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        if args.smoke:
            return smoke(tmp)
        trace = bool(args.trace)
        metrics, tallies, lines = run_workload(
            args.workload, args.seed, args.seconds, trace, "full", tmp)
        declared = declared_metrics(trace)
        result = result_json(metrics, tallies, declared)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with suppress(OSError):
            scratch.rmdir()
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(metric_line(name, value, declared[name]["unit"], declared[name]["better"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
