"""The benchmark's workloads: set-up, one question, its output checks, probes.

Each question calls the public functions of `epsim` in the order the
matching CLI command calls them, inside spans named `<layer>.<step>`. The
checks run after the timed question. Probes run only after traced questions,
outside the question, and time a layer call that the question makes only
inside another layer (`critical_path` inside `simulate`, `expand_instances`
inside `generate_schedule`) or that users do not make (`InlineBackend`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from epsim.energy import category_breakdown
from epsim.executor import (
    InlineBackend,
    LocalProcessBackend,
    execute,
    generate_schedule,
    load_schedule,
    save_schedule,
    topo_order,
)
from epsim.model import (
    EnsembleConfig,
    JobCategory,
    MemberPath,
    expand_instances,
    load_edges,
    load_suite_model,
    validate_suite,
)
from epsim.profiles import PhaseKind, load_profile
from epsim.simulate import critical_path, events_csv, simulate, summary_json, utilization
from epsim.whatif import Scenario, apply_scenario, energy_savings, max_speedup

import inputs
from replay import Cluster, replay
from spans import Tracer

N_CONTROL = 2
MEMBERS = 400  # sim-unlimited and schedule-build
# On 64 nodes a question at N=400 takes 5-9 s, so a run holds only 3-5 of
# them and the run medians spread by 20-30% across seeds; N=200 keeps the
# cluster saturated at about 15 questions a run.
SATURATED_MEMBERS = 200  # sim-64n
STUB_MEMBERS = 4
STUB_IO_SCALE = 0.1
DESK_SCALE = 10_000.0
COMPUTE_CEILING_S = 30.0  # LocalProcessBackend's default cap per compute phase


class InvalidModel(Exception):
    pass


@dataclass
class Checked:
    """What the checks of one question found and counted."""

    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    pin: dict = field(default_factory=dict)
    failed_ops: int = 0  # failed or skipped stub jobs
    samples: dict[str, list[float]] = field(default_factory=dict)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_instances(model_path: Path, n_control: int, n_total: int) -> int:
    """Instance count from the model file alone: role multiplier times repetitions."""
    raw = json.loads(model_path.read_text(encoding="utf-8"))
    per_role = {"All": n_total, "ControlOnly": n_control, "PerturbedOnly": n_total - n_control}
    return sum(
        per_role[j.get("role", "All")] * j.get("repetition", {}).get("instances", 1)
        for j in raw["jobs"]
    )


def _setup_model(ctx, n_total: int, node_count: int | None) -> Path:
    path = inputs.write_model(ctx.data_dir, ctx.scratch, ctx.seed, N_CONTROL, n_total, node_count)
    with ctx.tracer.span("model.load", "setup"):
        model = load_suite_model(path)
    with ctx.tracer.span("model.validate", "setup"):
        report = validate_suite(model)
    if not report.ok:
        raise InvalidModel(f"generated model is invalid: {report.errors}")
    return path


@dataclass
class Context:
    data_dir: Path
    scratch: Path
    seed: int
    tracer: Tracer


# ---------------------------------------------------------------------------
# sim-64n, sim-unlimited


@dataclass
class SimOutput:
    scenario_model: object
    graph: object
    result: object
    csv: str
    summary: str
    speedups: list[float]
    savings: tuple[float, float]
    breakdown: object


class Sim:
    unit = "instances"
    ops_per_question = 1

    def __init__(self, node_count: int | None, n_total: int):
        self.node_count = node_count
        self.n_total = n_total

    def setup(self, ctx: Context) -> None:
        self.ctx = ctx
        self.model_path = _setup_model(ctx, self.n_total, self.node_count)
        self.expected = expected_instances(self.model_path, N_CONTROL, self.n_total)
        self.digests: dict[int, str] = {}

    def plan(self) -> list[int]:
        return inputs.divisor_order(self.ctx.seed)

    def ask(self, divisor: int, qid: str) -> SimOutput:
        span = self.ctx.tracer.span
        with span("model.load", qid):
            model = load_suite_model(self.model_path)
        with span("model.validate", qid):
            report = validate_suite(model)
        if not report.ok:
            raise InvalidModel(f"model failed validation: {report.errors}")
        with span("whatif.apply", qid):
            scen = apply_scenario(model, Scenario(speedup={JobCategory.FORECAST: float(divisor)}))
        with span("model.expand", qid):
            graph = expand_instances(scen)
        with span("simulate.simulate", qid):
            result = simulate(graph, scen.cluster)
        with span("simulate.write", qid):
            utilization(result, scen.cluster)
            csv = events_csv(result)
            summary = summary_json(result, scen.cluster)
        with span("whatif.bounds", qid):
            speedups = [max_speedup(model, JobCategory.FORECAST, p) for p in MemberPath]
            savings = energy_savings(model, model.ensemble, JobCategory.FORECAST, 0.0)
        with span("energy.breakdown", qid):
            breakdown = category_breakdown(model, model.ensemble)
        return SimOutput(scen, graph, result, csv, summary, speedups, savings, breakdown)

    def check(self, divisor: int, out: SimOutput, qid: str) -> Checked:
        c = Checked()
        graph, result, cl = out.graph, out.result, out.scenario_model.cluster
        if len(graph) != self.expected:
            c.problems.append(f"{len(graph)} instances, expected {self.expected}")
        if len(result.events) != 3 * len(graph):
            c.problems.append(f"{len(result.events)} events for {len(graph)} instances")
        problems, stats = replay(
            [(e.instance_id, e.kind.value, e.time_s) for e in result.events],
            {i.id: (i.queue, i.cores, i.duration_s) for i in graph.instances.values()},
            graph.preds,
            Cluster(
                cl.node_count,
                cl.cores_per_node,
                {q: (s.exclusive_nodes, s.max_concurrent_jobs) for q, s in cl.queues.items()},
            ),
        )
        c.problems += problems
        if result.makespan_s < result.critical_path_s * (1 - 1e-12):
            c.problems.append(f"makespan {result.makespan_s} < critical path {result.critical_path_s}")
        if json.loads(out.summary)["makespan_s"] != result.makespan_s:
            c.problems.append("summary JSON makespan differs from the result")
        if min(out.speedups) < 1 or not 0 <= out.savings[1] <= 1:
            c.problems.append(f"closed forms out of range: {out.speedups} {out.savings}")
        if abs(sum(out.breakdown.fractions.values()) - 1) > 1e-9:
            c.problems.append("category fractions do not sum to 1")
        digest = _sha256(out.csv.encode())
        if self.digests.setdefault(divisor, digest) != digest:
            c.problems.append(f"divisor {divisor}: event log differs from the earlier question")
        c.pin = {
            str(divisor): {
                "events_sha256": digest,
                "makespan_s": result.makespan_s,
                "critical_path_s": result.critical_path_s,
                "nodes_used": result.nodes_used,
            }
        }
        c.counts = {
            "model.instances": len(graph),
            "model.instance_edges": sum(len(p) for p in graph.preds.values()),
            "simulate.events": len(result.events),
            "simulate.nodes_used": result.nodes_used,
            "simulate.dispatch_times": stats.dispatch_times,
            "simulate.ready_depth_max": stats.ready_depth_max,
            "simulate.ready_depth_mean": stats.ready_depth_mean,
            "simulate.makespan_s": result.makespan_s,
            "simulate.wait_s_mean": stats.wait_s_mean,
        }
        return c

    def probe(self, out: SimOutput, qid: str) -> None:
        with self.ctx.tracer.span("simulate.critical_path", f"{qid}-probe"):
            critical_path(out.graph)


# ---------------------------------------------------------------------------
# schedule-build


def _load_pipeline_inputs(ctx: Context, kjp_dir: Path, edges_path: Path, model_path: Path, qid: str):
    """`epsim schedule` input loading: profiles, edge list, model catalog."""
    with ctx.tracer.span("profiles.load", qid):
        profiles = [load_profile(p) for p in sorted(kjp_dir.glob("*.kjp"))]
    with ctx.tracer.span("model.load", qid):
        edges = list(load_edges(edges_path))
        catalog = {j.name: j for j in load_suite_model(model_path).jobs}
    return profiles, edges, catalog


def _setup_pipeline(ctx: Context, n_total: int) -> tuple[Path, Path, Path]:
    model_path = _setup_model(ctx, n_total, None)
    edges_path = inputs.write_edges(ctx.data_dir, ctx.scratch)
    with ctx.tracer.span("profiles.ingest", "setup"):
        kjp_dir = inputs.write_profiles(ctx.data_dir, ctx.scratch, ctx.seed)
    return model_path, edges_path, kjp_dir


class ScheduleBuild:
    unit = "scheduled jobs"
    ops_per_question = 1

    def setup(self, ctx: Context) -> None:
        self.ctx = ctx
        self.model_path, self.edges_path, self.kjp_dir = _setup_pipeline(ctx, MEMBERS)
        self.expected = expected_instances(self.model_path, N_CONTROL, MEMBERS)
        self.kjs_path = ctx.scratch / "suite.kjs"
        self.digest: str | None = None

    def plan(self) -> list[None]:
        return [None]

    def ask(self, _, qid: str):
        ctx = self.ctx
        profiles, edges, catalog = _load_pipeline_inputs(
            ctx, self.kjp_dir, self.edges_path, self.model_path, qid
        )
        with ctx.tracer.span("executor.generate", qid):
            doc = generate_schedule(
                profiles, edges, EnsembleConfig(N_CONTROL, MEMBERS), Scenario(), catalog=catalog
            )
        with ctx.tracer.span("executor.save", qid):
            save_schedule(doc, self.kjs_path)
        with ctx.tracer.span("executor.load", qid):
            loaded = load_schedule(self.kjs_path)
        with ctx.tracer.span("executor.topo", qid):
            order = topo_order(loaded)
        return doc, loaded, order

    def check(self, _, out, qid: str) -> Checked:
        doc, loaded, order = out
        c = Checked()
        if len(doc.jobs) != self.expected:
            c.problems.append(f"{len(doc.jobs)} jobs, expected {self.expected}")
        if loaded != doc:
            c.problems.append("loaded .kjs differs from the generated schedule")
        position = {jid: k for k, jid in enumerate(order)}
        if sorted(position) != list(range(len(doc.jobs))):
            c.problems.append("topological order is not a permutation of the job ids")
        elif any(position[d] > position[j.job_id] for j in doc.jobs for d in j.depends_on):
            c.problems.append("topological order puts a job before one of its dependencies")
        data = self.kjs_path.read_bytes()
        digest = _sha256(data)
        if self.digest is not None and digest != self.digest:
            c.problems.append(".kjs differs from the earlier question")
        self.digest = digest
        c.pin = {"kjs_sha256": digest, "jobs": len(doc.jobs)}
        c.counts = {
            "model.instances": len(doc.jobs),
            "model.instance_edges": sum(len(j.depends_on) for j in doc.jobs),
            "executor.jobs": len(doc.jobs),
            "executor.kjs_bytes": len(data),
        }
        return c

    def probe(self, out, qid: str) -> None:
        model = load_suite_model(self.model_path)
        with self.ctx.tracer.span("model.expand", f"{qid}-probe"):
            expand_instances(model)


# ---------------------------------------------------------------------------
# execute-stubs


def desk_compute_s(job) -> float:
    """The job's compute time as LocalProcessBackend asks the stub to spin."""
    return sum(
        min(p.duration_s / DESK_SCALE, COMPUTE_CEILING_S) for p in job.phases if p.kind is PhaseKind.COMPUTE
    )


def _io_bytes(doc, kind: PhaseKind) -> int:
    return sum(p.bytes for j in doc.jobs for p in j.phases if p.kind is kind)


class ExecuteStubs:
    unit = "stub jobs"

    def setup(self, ctx: Context) -> None:
        self.ctx = ctx
        model_path, edges_path, kjp_dir = _setup_pipeline(ctx, STUB_MEMBERS)
        profiles, edges, catalog = _load_pipeline_inputs(ctx, kjp_dir, edges_path, model_path, "setup")
        with ctx.tracer.span("executor.generate", "setup"):
            doc = generate_schedule(
                profiles,
                edges,
                EnsembleConfig(N_CONTROL, STUB_MEMBERS),
                Scenario(io_scale=STUB_IO_SCALE),
                catalog=catalog,
            )
        self.kjs_path = ctx.scratch / "member.kjs"
        with ctx.tracer.span("executor.save", "setup"):
            save_schedule(doc, self.kjs_path)
        self.expected_jobs = expected_instances(model_path, N_CONTROL, STUB_MEMBERS)
        self.ops_per_question = self.expected_jobs  # every failed or skipped job counts
        self.parallelism = min(2, os.cpu_count() or 1)
        # stub processes import epsim from the checkout; only their environment needs the path
        old = os.environ.get("PYTHONPATH")
        src = str(Path(__file__).resolve().parent.parent / "src")
        os.environ["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def plan(self) -> list[None]:
        return [None]

    def ask(self, _, qid: str):
        ctx = self.ctx
        with ctx.tracer.span("executor.load", qid):
            doc = load_schedule(self.kjs_path)
        workdir = ctx.scratch / f"work-{qid}"
        with ctx.tracer.span("executor.execute", qid) as parent:
            runlog = execute(
                doc,
                backend=LocalProcessBackend(desk_scale=DESK_SCALE),
                parallelism=self.parallelism,
                workdir=workdir,
            )
            for e in runlog.entries:
                if e.start_wallclock is not None:
                    ctx.tracer.add("stub.job", e.start_wallclock, e.end_wallclock, parent, qid)
        return doc, runlog, workdir

    def check(self, _, out, qid: str) -> Checked:
        doc, runlog, workdir = out
        c = Checked()
        if len(doc.jobs) != self.expected_jobs:
            c.problems.append(f"{len(doc.jobs)} jobs, expected {self.expected_jobs}")
        by_id = runlog.by_id()
        status = [e.status for e in runlog.entries]
        c.failed_ops = len(doc.jobs) - status.count("ok")
        if c.failed_ops:
            c.problems.append(f"{status.count('failed')} jobs failed, {status.count('skipped')} skipped")
        wall_ms, overhead_ms, ready_ms = [], [], []
        for j in doc.jobs:
            e = by_id.get(j.job_id)
            if e is None or e.status != "ok":
                continue
            wall = e.end_wallclock - e.start_wallclock
            wall_ms.append(wall * 1e3)
            overhead_ms.append((wall - desk_compute_s(j)) * 1e3)
            if j.depends_on:
                dep_end = max(by_id[d].end_wallclock for d in j.depends_on)
                if e.start_wallclock < dep_end:
                    c.problems.append(f"job {j.job_id} started before a dependency ended")
                ready_ms.append((e.start_wallclock - dep_end) * 1e3)
        bytes_read = sum(e.bytes_read for e in runlog.entries)
        bytes_written = sum(e.bytes_written for e in runlog.entries)
        if not c.failed_ops and (bytes_read, bytes_written) != (
            _io_bytes(doc, PhaseKind.IO_READ),
            _io_bytes(doc, PhaseKind.IO_WRITE),
        ):
            c.problems.append(f"stubs moved r={bytes_read} w={bytes_written}, schedule says otherwise")
        left = sorted(p.name for p in workdir.iterdir()) if workdir.exists() else []
        if left:
            c.problems.append(f"scratch files left behind: {left[:5]}")
        shutil.rmtree(workdir, ignore_errors=True)
        c.pin = {"jobs": len(doc.jobs), "bytes_read": bytes_read, "bytes_written": bytes_written}
        c.counts = {
            "model.instances": len(doc.jobs),
            "model.instance_edges": sum(len(j.depends_on) for j in doc.jobs),
            "executor.jobs": len(doc.jobs),
            "executor.kjs_bytes": self.kjs_path.stat().st_size,
            "executor.jobs_failed": status.count("failed"),
            "executor.jobs_skipped": status.count("skipped"),
            "stub.bytes_read": bytes_read,
            "stub.bytes_written": bytes_written,
        }
        c.samples = {"job_ms": wall_ms, "overhead_ms": overhead_ms, "ready_wait_ms": ready_ms}
        return c

    def probe(self, out, qid: str) -> None:
        """Run the same stub specs in-process; the gap to the process backend is spawn cost."""
        doc = out[0]
        workdir = self.ctx.scratch / f"inline-{qid}"
        workdir.mkdir()
        backend = InlineBackend(desk_scale=DESK_SCALE)
        # the stub logs each mpi_exchange phase on stderr; keep it out of the output
        with contextlib.redirect_stderr(io.StringIO()):
            for j in doc.jobs:
                with self.ctx.tracer.span("stub.inline", f"{qid}-probe"):
                    backend.run(j, workdir)
        shutil.rmtree(workdir)


def make(workload: str):
    return {
        "sim-64n": lambda: Sim(64, SATURATED_MEMBERS),
        "sim-unlimited": lambda: Sim(None, MEMBERS),
        "schedule-build": ScheduleBuild,
        "execute-stubs": ExecuteStubs,
    }[workload]()
