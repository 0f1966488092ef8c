"""Schedule documents (.kjs) and the synthetic-workload executor.

A schedule document lists concrete stub jobs with integer ids, dependency
lists and synthetic phases. The executor runs them as local processes (one
stub per job) honoring dependencies, with a concurrency limit; the batch
system of a real cluster is deliberately out of scope, but the backend
boundary is explicit so another submission path can be added.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import stub
from .codec import dump_json, integer, load_json, number, obj, opt, record, req, string, tuple_of
from .errors import (
    CycleDetected,
    InvalidScale,
    MissingProfile,
    SchemaError,
    SuiteError,
    WorkdirUnwritable,
)
from .model import (
    ClusterSpec,
    DependencyEdge,
    EnergyTerm,
    EnsembleConfig,
    JobCategory,
    JobProfile,
    MemberRole,
    SuiteModel,
    expand_instances,
    find_job_cycle,
    topological_order,
)
from .profiles import Phase, PhaseKind, UnifiedJobProfile, phase_from_dict, phase_to_dict
from .whatif import Scenario

log = logging.getLogger(__name__)

SCRATCH_ENV_VAR = "EPSIM_SCRATCH"


@dataclass(frozen=True)
class ScheduledJob:
    job_id: int
    name: str
    depends_on: tuple[int, ...] = ()
    phases: tuple[Phase, ...] = ()
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScheduleDocument:
    jobs: tuple[ScheduledJob, ...]
    created_from: tuple[str, ...] = ()
    io_scale: float = 1.0
    compute_scale: float = 1.0


def _scaled_phase(phase: Phase, io_scale: float, compute_scale: float) -> Phase:
    if phase.kind is PhaseKind.COMPUTE:
        return replace(phase, duration_s=phase.duration_s * compute_scale)
    if phase.kind in (PhaseKind.IO_READ, PhaseKind.IO_WRITE):
        return replace(phase, bytes=int(round(phase.bytes * io_scale)))
    return phase  # exchange is logged, never performed, and never scaled


def generate_schedule(
    profiles: list[UnifiedJobProfile],
    edges: list[DependencyEdge],
    cfg: EnsembleConfig,
    scenario: Scenario | None = None,
    catalog: dict[str, JobProfile] | None = None,
) -> ScheduleDocument:
    """Expand profiled jobs over ensemble members into a schedule document.

    Every edge endpoint must have a profile. Without a catalog each profiled
    job runs once for every member; a catalog (job name -> JobProfile)
    supplies member roles and repetition instead, and must list every
    profiled job.
    """
    scenario = scenario or Scenario()
    scenario.check()
    if not cfg.is_valid():
        raise SuiteError(f"need 1 <= n_control <= n_total, got ({cfg.n_control}, {cfg.n_total})")
    by_name = {p.job: p for p in profiles}
    for e in edges:
        for endpoint in (e.from_job, e.to_job):
            if endpoint not in by_name:
                raise MissingProfile(endpoint)
    cycle = find_job_cycle(sorted(by_name), tuple(edges))
    if cycle:
        raise CycleDetected(cycle)

    if catalog is not None and (unknown := sorted(by_name.keys() - catalog.keys())):
        raise SuiteError(f"profiled job not in the model catalog: {', '.join(unknown)}")

    # a job's name, role and repetition are all that shape the document
    plain = JobProfile("", JobCategory.OTHER, MemberRole.ALL, "synthetic", 1, 0.0, 0.0, EnergyTerm())
    shapes = tuple(replace(plain if catalog is None else catalog[name], name=name) for name in sorted(by_name))
    graph = expand_instances(SuiteModel(cfg, ClusterSpec(), shapes, tuple(edges)))

    # phases depend on the job name alone: scale each profile once, and let
    # the name's jobs share the tuple (Phase is frozen)
    phases_of = {
        name: tuple(_scaled_phase(p, scenario.io_scale, scenario.compute_scale) for p in profile.phases)
        for name, profile in by_name.items()
    }
    # a job id is its instance's rank, and its depends_on the sorted ranks of
    # the instance's predecessors
    jobs = [
        ScheduledJob(
            job_id=r,
            name=inst.job,
            depends_on=preds,
            phases=phases_of[inst.job],
            metadata={"instance": inst.id, "member": inst.member, "slot": inst.slot},
        )
        for r, (inst, preds) in enumerate(zip(graph.ranked, graph.pred_ranks))
    ]
    created_from = sorted({src for p in profiles for src in p.provenance} or {p.job for p in profiles})
    return ScheduleDocument(
        jobs=tuple(jobs),
        created_from=tuple(created_from),
        io_scale=scenario.io_scale,
        compute_scale=scenario.compute_scale,
    )


def _dependencies(doc: ScheduleDocument) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """(depends_on, dependents), each indexed by job id; checks ids are dense and known."""
    n = len(doc.jobs)
    if sorted(j.job_id for j in doc.jobs) != list(range(n)):
        raise SchemaError(f"job ids must be dense 0..{n - 1}")
    preds: list[tuple[int, ...]] = [()] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    for j in doc.jobs:
        preds[j.job_id] = j.depends_on
        for dep in j.depends_on:
            if not 0 <= dep < n:
                raise SchemaError(f"job {j.job_id} depends on unknown id {dep}")
            succs[dep].append(j.job_id)
    return preds, succs


def topo_order(doc: ScheduleDocument) -> list[int]:
    """Deterministic topological order (Kahn, smallest id first)."""
    return topological_order(*_dependencies(doc))


# ---------------------------------------------------------------------------
# Execution


@dataclass
class RunLogEntry:
    job_id: int
    name: str
    status: str  # "ok" | "failed" | "skipped"
    exit_status: int | None
    start_wallclock: float | None
    end_wallclock: float | None
    bytes_read: int = 0
    bytes_written: int = 0


@dataclass
class RunLog:
    entries: list[RunLogEntry] = field(default_factory=list)
    workdir: str = ""
    parallelism: int = 1

    @property
    def ok(self) -> bool:
        return all(e.status == "ok" for e in self.entries)

    def by_id(self) -> dict[int, RunLogEntry]:
        return {e.job_id: e for e in self.entries}

    def to_dict(self) -> dict:
        jobs = [asdict(e) for e in sorted(self.entries, key=lambda e: e.job_id)]
        return {"workdir": self.workdir, "parallelism": self.parallelism, "jobs": jobs}


@dataclass(frozen=True)
class BackendResult:
    exit_code: int
    bytes_read: int = 0
    bytes_written: int = 0


def stub_spec(job: ScheduledJob, workdir: Path, desk_scale: float, compute_ceiling_s: float) -> dict:
    """The stub's JSON spec for one job: compute phases desk-scaled and capped."""
    phases = []
    for p in job.phases:
        entry = {"kind": p.kind.value, "bytes": p.bytes, "ranks": p.ranks}
        if p.kind is PhaseKind.COMPUTE:
            entry["duration_s"] = min(p.duration_s / desk_scale, compute_ceiling_s)
        phases.append(entry)
    return {
        "job_id": job.job_id,
        "name": job.name,
        "workdir": str(workdir),
        "phases": phases,
        "metadata": job.metadata,
    }


class _StubBackend:
    """Desk-scale settings shared by the two backends; a context manager.

    `execute` holds the backend open for the run and closes it on any exit,
    KeyboardInterrupt included.
    """

    def __init__(self, desk_scale: float = 100.0, compute_ceiling_s: float = 30.0):
        if desk_scale <= 0:
            raise InvalidScale("desk_scale must be > 0")
        self.desk_scale = desk_scale
        self.compute_ceiling_s = compute_ceiling_s

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        pass


class _Zygote:
    """One ``stub.py --serve`` fork server, used by one worker thread at a time."""

    def __init__(self):
        # its own session: a terminal's Ctrl-C does not reach it or its jobs,
        # and killpg ends both
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", stub.__file__, "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.poll = select.poll()  # poll, not select: no FD_SETSIZE limit on the fd
        self.poll.register(self.proc.stdout, select.POLLIN)
        self.buf = b""
        self.job_pid: int | None = None  # the forked job in flight, once reported
        self.busy = False

    def send(self, spec: dict) -> None:
        self.proc.stdin.write(json.dumps(spec).encode() + b"\n")
        self.proc.stdin.flush()

    def read(self, deadline: float):
        """The next line as JSON, or None once `deadline` (monotonic) passes."""
        while b"\n" not in self.buf:
            if not self.poll.poll(max(deadline - time.monotonic(), 0) * 1e3):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"stub server {self.proc.pid} exited")
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def kill_job(self) -> None:
        if self.job_pid is not None:
            try:
                os.kill(self.job_pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def stop(self) -> None:
        """Kill the server's process group and reap the server."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class LocalProcessBackend(_StubBackend):
    """Runs each stub job as its own local process, forked by a stub server.

    Each worker thread lazily starts one ``python -I -S stub.py --serve``
    process and sends it one job at a time; the server forks a child per job
    and reports its pid and then its result. A job costs a fork, not an
    interpreter start, and the server never imports the epsim package.
    POSIX only. `close()` kills the jobs in flight, lets their servers reap
    them, then kills and reaps the servers.
    """

    # Seconds a stub may run beyond its desk-scaled compute before it is
    # killed; covers the fork and the I/O phases.
    TIMEOUT_MARGIN_S = 60.0
    TIMEOUT_EXIT = 124  # exit status recorded for a killed job, as timeout(1) reports it
    REAP_GRACE_S = 2.0  # how long a server may take to report a job that was killed

    def __init__(self, desk_scale: float = 100.0, compute_ceiling_s: float = 30.0):
        super().__init__(desk_scale, compute_ceiling_s)
        self._local = threading.local()
        self._cond = threading.Condition()
        self._zygotes: list[_Zygote] = []
        self._closed = False

    def __enter__(self):
        self._closed = False
        return self

    def _acquire(self) -> _Zygote:
        z = getattr(self._local, "zygote", None)
        with self._cond:
            if self._closed:
                raise RuntimeError("backend is closed")
            if z is None or z not in self._zygotes:
                z = self._local.zygote = _Zygote()
                self._zygotes.append(z)
            z.busy = True
        return z

    def _release(self, z: _Zygote, broken: bool) -> None:
        with self._cond:
            z.busy = False
            z.job_pid = None
            self._cond.notify_all()
            retire = broken and z in self._zygotes  # else close() stops it
            if retire:
                self._zygotes.remove(z)
        if retire:
            z.stop()

    def run(self, job: ScheduledJob, workdir: Path) -> BackendResult:
        spec = stub_spec(job, workdir, self.desk_scale, self.compute_ceiling_s)
        timeout = self.TIMEOUT_MARGIN_S + sum(p.get("duration_s", 0.0) for p in spec["phases"])
        z = self._acquire()
        msg = None
        try:
            z.send(spec)
            deadline = time.monotonic() + timeout
            timed_out = False
            while True:
                msg = z.read(deadline)
                if isinstance(msg, dict):
                    break
                if isinstance(msg, int):  # the job's pid
                    log.debug("stub job %d (%s) runs as pid %d", job.job_id, job.name, msg)
                    with self._cond:
                        z.job_pid = msg
                        closed = self._closed
                    if closed:  # close() ran before the pid was known
                        z.kill_job()
                elif timed_out or z.job_pid is None:  # the server itself is stuck
                    raise RuntimeError(f"stub server {z.proc.pid} did not report job {job.job_id}")
                else:
                    timed_out = True
                    z.kill_job()  # the server reaps it and reports
                    deadline = time.monotonic() + self.REAP_GRACE_S
        finally:
            self._release(z, broken=not isinstance(msg, dict))
        if timed_out:
            log.warning("stub job %d (%s) killed after %.1f s", job.job_id, job.name, timeout)
            return BackendResult(exit_code=self.TIMEOUT_EXIT)
        if msg["exit"] != 0:
            if not self._closed:  # else close() killed it, and the run is being torn down
                log.warning("stub job %d (%s) failed: %s", job.job_id, job.name, msg.get("error", ""))
            return BackendResult(exit_code=msg["exit"])
        return BackendResult(0, int(msg["bytes_read"]), int(msg["bytes_written"]))

    def close(self) -> None:
        with self._cond:
            self._closed = True
            zygotes, self._zygotes = self._zygotes, []
            for z in zygotes:
                z.kill_job()
            # each killed job is reaped by its own server before the server goes
            self._cond.wait_for(lambda: not any(z.busy for z in zygotes), self.REAP_GRACE_S)
        for z in zygotes:
            z.stop()


class InlineBackend(_StubBackend):
    """Runs stub phases in-process; same semantics, no process spawn.

    Useful for fast property tests and dry runs; the dispatch logic above it
    is identical to the process-backed path.
    """

    def run(self, job: ScheduledJob, workdir: Path) -> BackendResult:
        spec = stub_spec(job, workdir, self.desk_scale, self.compute_ceiling_s)
        try:
            bytes_read, bytes_written = stub.run_phases(spec)
        except stub.StubFailure as exc:
            log.warning("inline job %d (%s) failed: %s", job.job_id, job.name, exc)
            return BackendResult(exit_code=1)
        return BackendResult(0, bytes_read, bytes_written)


def _prepare_workdir(workdir: str | Path | None) -> tuple[Path, bool]:
    created_tmp = False
    if workdir is None:
        workdir = os.environ.get(SCRATCH_ENV_VAR)
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="epsim-scratch-")
        created_tmp = True
    path = Path(workdir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write_probe"
        probe.write_text("ok")
        probe.unlink()
    except OSError as exc:
        raise WorkdirUnwritable(str(path), str(exc)) from None
    return path, created_tmp


def execute(
    doc: ScheduleDocument,
    backend=None,
    parallelism: int = 1,
    workdir: str | Path | None = None,
    keep_scratch: bool = False,
) -> RunLog:
    """Run the schedule's stub jobs, honoring dependencies.

    A job starts only after all dependencies exited successfully; dependents
    of failed jobs are marked skipped. Up to `parallelism` jobs run at once.
    """
    if parallelism < 1:
        raise SuiteError("parallelism must be >= 1")
    preds, succs = _dependencies(doc)
    topological_order(preds, succs)  # acyclicity guard
    jobs = {j.job_id: j for j in doc.jobs}
    path, created_tmp = _prepare_workdir(workdir)
    backend = backend or LocalProcessBackend()

    logrec = RunLog(workdir=str(path), parallelism=parallelism)
    ready = [i for i, p in enumerate(preds) if not p]  # ascending: already a heap
    # neither ready nor skipped yet: job id -> dependencies not yet finished ok
    pending = {i: len(p) for i, p in enumerate(preds) if p}
    starts: dict[int, float] = {}
    running: dict = {}

    def mark_skipped(root: int) -> None:
        stack = list(succs[root])
        while stack:
            jid = stack.pop()
            if jid not in pending:
                continue
            del pending[jid]
            logrec.entries.append(RunLogEntry(jid, jobs[jid].name, "skipped", None, None, None))
            stack.extend(succs[jid])

    # the backend closes first, killing the jobs in flight, so that the pool's
    # shutdown never waits them out
    with ThreadPoolExecutor(max_workers=parallelism) as pool, backend:
        while ready or running:
            while ready and len(running) < parallelism:
                jid = heapq.heappop(ready)
                starts[jid] = time.perf_counter()
                running[pool.submit(backend.run, jobs[jid], path)] = jid
            done, _ = wait(list(running), return_when=FIRST_COMPLETED)
            for fut in sorted(done, key=lambda f: running[f]):
                jid = running.pop(fut)
                end = time.perf_counter()
                try:
                    result = fut.result()
                except Exception as exc:  # backend bug or spawn failure
                    log.error("backend crashed on job %d: %s", jid, exc)
                    result = BackendResult(exit_code=-1)
                status = "ok" if result.exit_code == 0 else "failed"
                entry = RunLogEntry(jid, jobs[jid].name, status, result.exit_code, starts[jid], end)
                entry.bytes_read, entry.bytes_written = result.bytes_read, result.bytes_written
                logrec.entries.append(entry)
                if status == "ok":
                    for s in succs[jid]:
                        if s in pending:
                            pending[s] -= 1
                            if not pending[s]:
                                del pending[s]
                                heapq.heappush(ready, s)
                else:
                    mark_skipped(jid)

    if logrec.ok and not keep_scratch:
        _cleanup_scratch(path, doc, created_tmp)
    return logrec


def _cleanup_scratch(path: Path, doc: ScheduleDocument, created_tmp: bool) -> None:
    for j in doc.jobs:
        for suffix in (".in", ".out"):
            f = path / f"j{j.job_id:05d}{suffix}"
            if f.exists():
                f.unlink()
    if created_tmp:
        try:
            path.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Schedule document files (.kjs)


def schedule_to_dict(doc: ScheduleDocument) -> dict:
    phase_lists: dict[int, list[dict]] = {}  # by id() of a phases tuple, which jobs of one name share
    jobs = []
    for j in doc.jobs:
        phases = phase_lists.get(id(j.phases))
        if phases is None:
            phases = phase_lists[id(j.phases)] = [phase_to_dict(p) for p in j.phases]
        jobs.append(
            {
                "job_id": j.job_id,
                "name": j.name,
                "depends_on": list(j.depends_on),
                "phases": phases,
                "metadata": j.metadata,
            }
        )
    return {
        "created_from": list(doc.created_from),
        "scale": {"io_scale": doc.io_scale, "compute_scale": doc.compute_scale},
        "jobs": jobs,
    }


_phases_from_list = tuple_of(phase_from_dict)


def schedule_from_dict(raw, at="") -> ScheduleDocument:
    o = obj(raw, at)
    scale = opt(o, "scale", at, obj, {})
    # decode each distinct phase list once, so that the jobs of one name share
    # one tuple again; repr, unlike ==, tells 1, 1.0 and true apart
    decoded: dict[str, tuple[Phase, ...]] = {}

    def phases(v, at) -> tuple[Phase, ...]:
        try:
            key = repr(v)
        except RecursionError:  # nested too deep to print; the checked read reports it
            return _phases_from_list(v, at)
        if key not in decoded:
            decoded[key] = _phases_from_list(v, at)
        return decoded[key]

    read_job = record(
        ScheduledJob, job_id=integer, name=string, depends_on=tuple_of(integer), phases=phases, metadata=obj
    )
    return ScheduleDocument(
        jobs=tuple(sorted(req(o, "jobs", at, tuple_of(read_job)), key=lambda j: j.job_id)),
        created_from=opt(o, "created_from", at, tuple_of(string), ()),
        io_scale=opt(scale, "io_scale", (at, "scale"), number, 1.0),
        compute_scale=opt(scale, "compute_scale", (at, "scale"), number, 1.0),
    )


def save_schedule(doc: ScheduleDocument, path: str | Path) -> None:
    Path(path).write_text(dump_json(schedule_to_dict(doc)), encoding="utf-8")


def load_schedule(path: str | Path) -> ScheduleDocument:
    return load_json(path, schedule_from_dict)
