#!/usr/bin/env python3
"""epsim benchmark: one workload per run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sim-64n --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports `epsim` from `src/`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics. See
perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before epsim is imported

import argparse
import faulthandler
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH_ROOT = HERE / ".scratch"
TRACE_DIR = HERE / "out"
DEFAULT_SEED = 1  # the seed whose outputs perfbench/pins.json pins
WORKLOADS = ("sim-64n", "sim-unlimited", "schedule-build", "execute-stubs")
SETUP_REPEATS = 5  # this run's own set-up plus four in fresh processes
WATCHDOG_S = 170  # a run that hangs is stopped before the 180 s limit


def parse_args(argv):
    p = argparse.ArgumentParser(description="epsim benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class Asked:
    qid: str
    traced: bool
    ops: int
    seconds: float | None = None  # None when the question raised
    checked: object = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed_ops(self) -> int:
        if self.checked is not None and self.checked.failed_ops:
            return self.checked.failed_ops
        return self.ops if self.problems else 0


def set_up(workload: str, seed: int, scratch: Path, tracer):
    import epsim

    if SRC not in Path(epsim.__file__).resolve().parents:
        raise RuntimeError(f"imported epsim from {epsim.__file__}, not from {SRC}")
    import questions

    scratch.mkdir(parents=True)
    wl = questions.make(workload)
    wl.setup(questions.Context(SRC / "epsim" / "data", scratch, seed, tracer))
    return wl


def child_setup_s(args) -> float:
    """Set-up time of a fresh process, so that import cost is in every sample."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def pin_problems(pin: dict, expected: dict) -> list[str]:
    return [
        f"pin {key}: got {json.dumps(value)}, pinned {json.dumps(expected.get(key))}"
        for key, value in pin.items()
        if expected.get(key) != value
    ]


def ask_one(wl, arg, qid: str, tracer, pins: dict | None) -> Asked:
    rec = Asked(qid, tracer.enabled, wl.ops_per_question)
    try:
        with tracer.span("cli.question", qid):
            t0 = time.perf_counter()
            out = wl.ask(arg, qid)
            rec.seconds = time.perf_counter() - t0
    except Exception:
        rec.problems.append(f"{qid} raised:\n{traceback.format_exc()}")
        return rec
    try:
        rec.checked = wl.check(arg, out, qid)
        rec.problems += rec.checked.problems
        if pins is not None:
            rec.problems += pin_problems(rec.checked.pin, pins)
        if tracer.enabled:
            wl.probe(out, qid)
    except Exception:
        rec.problems.append(f"{qid} check raised:\n{traceback.format_exc()}")
    return rec


def measure(wl, seconds: float, traced: bool, tracer, pins) -> list[Asked]:
    """Questions in the workload's order, cycled, while the next one still fits in `seconds`.

    A traced run asks each question twice in a row, untraced then traced, so
    that the tracing overhead is the median difference within those pairs.
    """
    plan = wl.plan()
    per_arg = 2 if traced else 1
    asked: list[Asked] = []
    start = time.perf_counter()
    while True:
        k = len(asked)
        tracer.enabled = traced and k % 2 == 1
        t_q = time.perf_counter()
        asked.append(ask_one(wl, plan[(k // per_arg) % len(plan)], f"q{k}", tracer, pins))
        now = time.perf_counter()
        if len(asked) % per_arg == 0 and (now - start) + (now - t_q) * per_arg > seconds:
            return asked


def leftover_child() -> bool:
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True  # a child still running (pid 0) or one that exited unwaited


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def end_to_end(wl, asked: list[Asked], setup_samples: list[float]) -> tuple[dict, list[str]]:
    ok = [a for a in asked if a.checked is not None and a.seconds is not None]
    secs = [a.seconds for a in ok]
    units = [a.checked.counts["model.instances"] for a in ok]
    overhead = [x for a in ok for x in a.checked.samples.get("overhead_ms", ())]
    if overhead:
        overhead_note = f"{len(overhead)} {wl.unit}"
    else:
        # nothing runs for real: each unit's host time is all overhead
        overhead = [s * 1e3 / u for s, u in zip(secs, units)]
        overhead_note = f"{len(overhead)} questions, mean per {wl.unit[:-1]}"
    values = {
        "setup_s": statistics.median(setup_samples),
        "question_s_p50": statistics.median(secs),
        "instances_per_s": statistics.median(units) / statistics.median(secs),
        "jobs_per_s": sum(units) / sum(secs),
        "job_overhead_ms_p50": statistics.median(overhead),
        "job_overhead_ms_p90": p90(overhead),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"setup_s: median of {len(setup_samples)} set-ups",
        f"question_s_p50: {len(secs)} questions of {statistics.median(units):.0f} {wl.unit}: "
        + " ".join(f"{x:.3f}" for x in secs),
        f"job_overhead_ms_*: {overhead_note}",
    ]
    return values, notes


def per_layer(asked: list[Asked], spans: list[dict]) -> tuple[dict, list[str]]:
    from spans import layer_self_seconds, span_seconds

    ok = [a for a in asked if a.checked is not None and a.seconds is not None]
    traced = [a for a in ok if a.traced]
    qids = [a.qid for a in traced]
    values = {f"{name}_s": v for name, v in span_seconds(spans, qids).items()}
    values.update({f"{layer}.self_s": v for layer, v in layer_self_seconds(spans, qids).items()})
    for key in traced[0].checked.counts:
        values[key] = statistics.median(a.checked.counts[key] for a in traced)
    if values.get("simulate.events"):
        values["simulate.host_us_per_event"] = values["simulate.simulate_s"] * 1e6 / values["simulate.events"]

    def sample_median(key):
        xs = [x for a in traced for x in a.checked.samples.get(key, ())]
        return statistics.median(xs) if xs else 0.0

    values["stub.job_ms_p50"] = sample_median("job_ms")
    values["executor.ready_wait_ms_p50"] = sample_median("ready_wait_ms")
    inline = [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "stub.inline"]
    values["stub.inline_ms_p50"] = statistics.median(inline) if inline else 0.0
    pairs = [
        (b.seconds, a.seconds)
        for a, b in zip(asked[0::2], asked[1::2])
        if a.seconds is not None and b.seconds is not None
    ]
    values["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    notes = [
        f"{len(traced)} traced questions; trace.overhead_s over {len(pairs)} "
        f"untraced/traced pairs of the same question",
    ]
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "epsim" / "__init__.py").is_file():
        print(f"error: {SRC / 'epsim'} not found; run from the root of an epsim checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    from spans import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    scratch = SCRATCH_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        wl = set_up(args.workload, args.seed, scratch, tracer)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        pins = None
        if args.seed == DEFAULT_SEED:
            pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8")).get(args.workload, {})
        asked = measure(wl, seconds, bool(args.trace), tracer, pins)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    run_problems = []
    if leftover_child():
        run_problems.append("a child process was left behind")
    for a in asked:
        for p in a.problems:
            print(f"check failed: {p}", file=sys.stderr)
    for p in run_problems:
        print(f"check failed: {p}", file=sys.stderr)

    attempted = sum(a.ops for a in asked)
    failed = attempted if run_problems else sum(a.failed_ops for a in asked)
    if args.trace:
        values, notes = per_layer(asked, tracer.spans)
        names = spec["per_layer"]
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out)
        notes.append(f"spans written to {out.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(wl, asked, setup_samples)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_ratio':<30} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    for n in notes:
        print(f"  note: {n}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
