import ast
import json
import logging
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from epsim import stub

from epsim.datafiles import edges_path, load_bundled_model
from epsim.errors import CycleDetected, InvalidScenario, MissingProfile, SchemaError, SuiteError
from epsim.executor import (
    InlineBackend,
    LocalProcessBackend,
    ScheduleDocument,
    ScheduledJob,
    execute,
    generate_schedule,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    stub_spec,
    topo_order,
)
from epsim.model import DependencyEdge, EnsembleConfig, load_edges
from epsim.profiles import Phase, PhaseKind, UnifiedJobProfile
from epsim.whatif import Scenario
from test_pins import bundled_profiles

FAST = InlineBackend(desk_scale=1e6)


def profile(job, read=0, compute=0.0, write=0):
    phases = []
    if read:
        phases.append(Phase(PhaseKind.IO_READ, bytes=read))
    phases.append(Phase(PhaseKind.COMPUTE, duration_s=compute))
    if write:
        phases.append(Phase(PhaseKind.IO_WRITE, bytes=write))
    return UnifiedJobProfile(job, tuple(phases))


def doc_of(jobs):
    return ScheduleDocument(jobs=tuple(jobs))


def sjob(job_id, deps=(), write=0, compute=0.0, metadata=None, name=None):
    phases = [Phase(PhaseKind.COMPUTE, duration_s=compute)]
    if write:
        phases.append(Phase(PhaseKind.IO_WRITE, bytes=write))
    return ScheduledJob(
        job_id=job_id,
        name=name or f"job{job_id}",
        depends_on=tuple(deps),
        phases=tuple(phases),
        metadata=metadata or {},
    )


class TestGenerateSchedule:
    def test_two_job_chain_single_member(self):
        profiles = [profile("A", compute=1.0), profile("B", compute=2.0)]
        doc = generate_schedule(profiles, [DependencyEdge("A", "B")], EnsembleConfig(1, 1))
        assert [(j.job_id, j.name) for j in doc.jobs] == [(0, "A"), (1, "B")]
        assert doc.jobs[1].depends_on == (0,)

    def test_io_scale_doubles_write_bytes(self):
        profiles = [profile("A", write=100)]
        doc = generate_schedule(
            profiles, [], EnsembleConfig(1, 1), Scenario(io_scale=2.0)
        )
        write = next(p for p in doc.jobs[0].phases if p.kind is PhaseKind.IO_WRITE)
        assert write.bytes == 200
        assert doc.io_scale == 2.0

    def test_scenario_scales_every_jobs_phases(self):
        # the expected phases are worked out here from the profiles, apart
        # from the executor's own scaling
        profiles = bundled_profiles()
        catalog = {j.name: j for j in load_bundled_model().jobs}
        doc = generate_schedule(
            profiles, list(load_edges(edges_path())), EnsembleConfig(2, 5),
            Scenario(io_scale=0.1, compute_scale=2.0), catalog=catalog,
        )
        expected = {}
        for prof in profiles:
            phases = []
            for p in prof.phases:
                if p.kind is PhaseKind.COMPUTE:
                    p = Phase(p.kind, p.duration_s * 2.0, p.bytes, p.ranks)
                elif p.kind in (PhaseKind.IO_READ, PhaseKind.IO_WRITE):
                    p = Phase(p.kind, p.duration_s, round(p.bytes * 0.1), p.ranks)
                phases.append(p)
            expected[prof.job] = tuple(phases)
        assert any(p.bytes % 10 for prof in profiles for p in prof.phases)  # rounding is exercised
        for job in doc.jobs:
            assert job.phases == expected[job.name]
            assert all(type(p.bytes) is int for p in job.phases)
        for name in expected:
            shared = {id(j.phases) for j in doc.jobs if j.name == name}
            assert len(shared) == 1, name  # a name's jobs share one phases tuple
        assert len(doc.jobs) > 2 * len(expected)

    def test_missing_profile(self):
        with pytest.raises(MissingProfile):
            generate_schedule([profile("A")], [DependencyEdge("A", "B")], EnsembleConfig(1, 1))

    def test_cycle_detected(self):
        profiles = [profile("A"), profile("B")]
        edges = [DependencyEdge("A", "B"), DependencyEdge("B", "A")]
        with pytest.raises(CycleDetected):
            generate_schedule(profiles, edges, EnsembleConfig(1, 1))

    @pytest.mark.parametrize("n,N", [(5, 2), (0, 0)])
    def test_invalid_ensemble_rejected(self, n, N):
        with pytest.raises(SuiteError, match=rf"^need 1 <= n_control <= n_total, got \({n}, {N}\)$"):
            generate_schedule([profile("A")], [], EnsembleConfig(n, N))

    def test_member_expansion(self):
        doc = generate_schedule([profile("A")], [], EnsembleConfig(1, 3))
        assert len(doc.jobs) == 3
        members = sorted(j.metadata["member"] for j in doc.jobs)
        assert members == [0, 1, 2]


class TestTopoOrder:
    def test_chain(self):
        doc = doc_of([sjob(0), sjob(1, [0]), sjob(2, [1])])
        assert topo_order(doc) == [0, 1, 2]

    def test_diamond_breaks_ties_by_id(self):
        doc = doc_of([sjob(0), sjob(1, [0]), sjob(2, [0]), sjob(3, [1, 2])])
        assert topo_order(doc) == [0, 1, 2, 3]

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            topo_order(doc_of([sjob(0, [0])]))

    def test_two_cycle_with_dependent_names_the_cycle(self, tmp_path):
        doc = doc_of([sjob(0, [1]), sjob(1, [0]), sjob(2, [1])])
        for run in (lambda: topo_order(doc), lambda: execute(doc, backend=FAST, workdir=tmp_path)):
            with pytest.raises(CycleDetected) as exc:
                run()
            assert exc.value.cycle == [0, 1, 0]
            assert str(exc.value) == "dependency cycle: 0 -> 1 -> 0"

    def test_unknown_dependency_id(self):
        with pytest.raises(SchemaError):
            topo_order(doc_of([sjob(0, [7])]))

    def test_non_dense_ids(self):
        with pytest.raises(SchemaError):
            topo_order(doc_of([sjob(0), sjob(2)]))

    @pytest.mark.parametrize("dep", [2, -1, -2])
    def test_dependency_outside_the_ids_is_unknown(self, dep, tmp_path):
        # job ids index lists, where -1 would quietly name the last job
        doc = doc_of([sjob(0), sjob(1, [dep])])
        for run in (lambda: topo_order(doc), lambda: execute(doc, backend=FAST, workdir=tmp_path)):
            with pytest.raises(SchemaError, match=rf"^job 1 depends on unknown id {dep}$"):
                run()

    def test_jobs_listed_out_of_id_order(self):
        doc = doc_of([sjob(2, [0]), sjob(0), sjob(1, [2])])
        assert topo_order(doc) == [0, 2, 1]


class TestScaleSchedule:
    # what `epsim schedule --io-scale/--compute-scale` does to a schedule

    def test_identity(self):
        profiles = [profile("A", compute=1.0, write=100)]
        doc = generate_schedule(profiles, [], EnsembleConfig(1, 1), Scenario(io_scale=1.0, compute_scale=1.0))
        assert doc.jobs[0].phases == profiles[0].phases

    def test_zero_io_keeps_phases(self):
        doc = generate_schedule([profile("A", write=100)], [], EnsembleConfig(1, 1), Scenario(io_scale=0.0))
        write = next(p for p in doc.jobs[0].phases if p.kind is PhaseKind.IO_WRITE)
        assert write.bytes == 0

    def test_negative_rejected(self):
        with pytest.raises(InvalidScenario):
            generate_schedule([profile("A")], [], EnsembleConfig(1, 1), Scenario(io_scale=-1.0))


class TestExecute:
    def test_chain_order(self, tmp_path):
        doc = doc_of([sjob(0), sjob(1, [0])])
        log = execute(doc, backend=FAST, workdir=tmp_path, parallelism=2)
        entries = log.by_id()
        assert log.ok
        assert entries[1].start_wallclock >= entries[0].end_wallclock

    def test_io_write_bytes_on_disk(self, tmp_path):
        doc = doc_of([sjob(0, write=1048576)])
        log = execute(
            doc, backend=LocalProcessBackend(), workdir=tmp_path, keep_scratch=True
        )
        assert log.by_id()[0].bytes_written == 1048576
        assert (tmp_path / "j00000.out").stat().st_size == 1048576

    def test_failure_skips_dependents(self, tmp_path):
        doc = doc_of(
            [
                sjob(0, metadata={"fail": True}),
                sjob(1, [0]),
                sjob(2, [0]),
                sjob(3, [1]),
                sjob(4),
            ]
        )
        log = execute(doc, backend=FAST, workdir=tmp_path, parallelism=2)
        status = {e.job_id: e.status for e in log.entries}
        assert status[0] == "failed"
        assert status[1] == status[2] == status[3] == "skipped"
        assert status[4] == "ok"
        assert not log.ok

    def test_failure_with_subprocess_backend(self, tmp_path):
        doc = doc_of([sjob(0, metadata={"fail": True}), sjob(1, [0])])
        log = execute(doc, backend=LocalProcessBackend(), workdir=tmp_path)
        status = {e.job_id: e.status for e in log.entries}
        assert status == {0: "failed", 1: "skipped"}

    def test_scratch_removed_on_success(self, tmp_path):
        doc = doc_of([sjob(0, write=1000)])
        execute(doc, backend=LocalProcessBackend(), workdir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_keep_scratch(self, tmp_path):
        doc = doc_of([sjob(0, write=1000)])
        execute(doc, backend=LocalProcessBackend(), workdir=tmp_path, keep_scratch=True)
        assert (tmp_path / "j00000.out").exists()

    def test_workdir_unwritable(self, tmp_path):
        from epsim.errors import WorkdirUnwritable

        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(WorkdirUnwritable):
            execute(doc_of([sjob(0)]), backend=FAST, workdir=target)

    def test_exit_status_recorded_for_every_job(self, tmp_path):
        doc = doc_of([sjob(0, metadata={"fail": True}), sjob(1, [0]), sjob(2)])
        log = execute(doc, backend=FAST, workdir=tmp_path)
        assert sorted(e.job_id for e in log.entries) == [0, 1, 2]


class TestStubProcess:
    """The process backend launches stub.py as a stdlib-only script."""

    def test_stub_imports_only_the_stdlib_allowlist(self):
        tree = ast.parse(Path(stub.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "stub.py must not use relative imports"
                imported.add(node.module.split(".")[0])
        assert imported <= {"__future__", "json", "os", "sys", "time"}

    def test_child_never_imports_the_package(self, tmp_path, monkeypatch):
        # an importable but broken epsim on PYTHONPATH and in the cwd
        poison = tmp_path / "poison"
        (poison / "epsim").mkdir(parents=True)
        (poison / "epsim" / "__init__.py").write_text("raise ImportError('epsim imported')\n")
        monkeypatch.setenv("PYTHONPATH", str(poison))
        monkeypatch.chdir(poison)
        job = ScheduledJob(
            0,
            "io",
            (),
            (
                Phase(PhaseKind.IO_READ, bytes=3000),
                Phase(PhaseKind.COMPUTE, duration_s=1.0),
                Phase(PhaseKind.IO_WRITE, bytes=5000),
            ),
        )
        work = tmp_path / "work"
        log = execute(doc_of([job]), backend=LocalProcessBackend(), workdir=work, keep_scratch=True)
        entry = log.by_id()[0]
        assert (entry.status, entry.bytes_read, entry.bytes_written) == ("ok", 3000, 5000)
        assert (work / "j00000.out").stat().st_size == 5000

    def test_hung_stub_is_killed_and_dependents_skipped(self, tmp_path, monkeypatch):
        # the job spins 2 s against a 0.5 s timeout
        monkeypatch.setattr(LocalProcessBackend, "TIMEOUT_MARGIN_S", -1.5)
        spawned = []

        class RecordingPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
        doc = doc_of([sjob(0, compute=2.0), sjob(1, [0])])
        log = execute(doc, backend=LocalProcessBackend(desk_scale=1.0), workdir=tmp_path)
        entries = log.by_id()
        assert entries[0].status == "failed"
        assert entries[0].exit_status == LocalProcessBackend.TIMEOUT_EXIT
        assert entries[0].end_wallclock - entries[0].start_wallclock < 1.9
        assert entries[1].status == "skipped"
        [proc] = spawned
        assert proc.returncode == -signal.SIGKILL  # killed and reaped
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)


SRC = Path(__file__).resolve().parent.parent / "src"

INTERRUPTED_RUN = """
import sys
from epsim.executor import LocalProcessBackend, ScheduleDocument, ScheduledJob, execute
from epsim.profiles import Phase, PhaseKind
job = ScheduledJob(0, "spin", (), (Phase(PhaseKind.IO_WRITE, bytes=10), Phase(PhaseKind.COMPUTE, duration_s=30.0)))
execute(ScheduleDocument((job,)), backend=LocalProcessBackend(desk_scale=1.0), workdir=sys.argv[1])
"""


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process ended while we looked
            continue
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


@pytest.fixture
def spawned(monkeypatch):
    """Every subprocess.Popen made during the test."""
    made = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return made


class TestStubServer:
    """One `stub.py --serve` process per worker slot forks one child per job."""

    def test_serve_protocol_by_hand(self, tmp_path):
        spec = stub_spec(sjob(0, write=700), tmp_path, 1.0, 30.0)
        proc = subprocess.run(
            [sys.executable, "-I", "-S", stub.__file__, "--serve"],
            input=json.dumps(spec) + "\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        pid, result = [json.loads(line) for line in proc.stdout.splitlines()]
        assert isinstance(pid, int)
        assert result == {"bytes_read": 0, "bytes_written": 700, "exit": 0}
        assert proc.returncode == 0

    def test_one_server_per_slot_and_no_spec_files(self, tmp_path, spawned):
        doc = doc_of([sjob(i, [i - 2] if i >= 2 else [], write=100) for i in range(20)])
        log = execute(doc, backend=LocalProcessBackend(), workdir=tmp_path, parallelism=2, keep_scratch=True)
        assert log.ok
        assert 1 <= len(spawned) <= 2
        assert all(p.returncode is not None for p in spawned)  # closed and reaped
        assert {f.suffix for f in tmp_path.iterdir()} == {".out"}

    def test_hung_job_pid_is_reaped_and_the_slot_runs_on(self, tmp_path, spawned, caplog):
        caplog.set_level(logging.DEBUG, logger="epsim.executor")
        with LocalProcessBackend(desk_scale=1.0) as backend:
            backend.TIMEOUT_MARGIN_S = -1.5  # 2 s of compute against a 0.5 s timeout
            hung = backend.run(sjob(0, compute=2.0), tmp_path)
            backend.TIMEOUT_MARGIN_S = 30.0
            after = backend.run(sjob(1, write=1000), tmp_path)
            [server] = spawned  # the same server ran both jobs
            assert server.poll() is None
        assert hung.exit_code == LocalProcessBackend.TIMEOUT_EXIT
        assert (after.exit_code, after.bytes_written) == (0, 1000)
        pids = {r.args[0]: r.args[2] for r in caplog.records if r.msg == "stub job %d (%s) runs as pid %d"}
        assert set(pids) == {0, 1} and server.pid not in pids.values()
        for pid in pids.values():
            with pytest.raises(ProcessLookupError):  # killed and reaped, not a zombie
                os.kill(pid, 0)
        assert server.returncode is not None

    def test_failure_text_reaches_the_log(self, tmp_path, caplog):
        doc = doc_of([sjob(0, metadata={"fail": True}, name="doomed")])
        with caplog.at_level(logging.WARNING, logger="epsim.executor"):
            log = execute(doc, backend=LocalProcessBackend(), workdir=tmp_path)
        assert log.by_id()[0].exit_status == 1
        assert "stub job 0 (doomed) failed: job doomed forced to fail" in caplog.messages

    def test_close_racing_running_jobs_leaves_no_process(self, tmp_path, spawned, caplog):
        # more slots than cores and a short switch interval, so that close()
        # lands in every phase of run(): starting a server, awaiting a pid, a result
        caplog.set_level(logging.DEBUG, logger="epsim.executor")
        doc = doc_of([sjob(i, compute=0.05) for i in range(200)])
        backend = LocalProcessBackend(desk_scale=1.0)
        runner = threading.Thread(target=execute, args=(doc, backend, 6, tmp_path))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner.start()
            time.sleep(0.3)
            backend.close()
            runner.join(timeout=20)
        finally:
            sys.setswitchinterval(switch)
        assert not runner.is_alive()
        assert 1 <= len(spawned) <= 6
        assert all(p.returncode is not None for p in spawned)
        pids = [r.args[2] for r in caplog.records if r.msg == "stub job %d (%s) runs as pid %d"]
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process tree from /proc")
    def test_interrupt_leaves_no_process_behind(self, tmp_path):
        runner = subprocess.Popen(
            [sys.executable, "-c", INTERRUPTED_RUN, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        pids = []
        try:
            deadline = time.monotonic() + 30
            while not (tmp_path / "j00000.out").exists():  # the job is running
                assert time.monotonic() < deadline and runner.poll() is None
                time.sleep(0.05)
            pids = descendants(runner.pid)
            assert pids
            # to the runner alone, as a supervisor would send it; the job's
            # spin lasts 30 s, so only the backend's close can end it sooner
            os.kill(runner.pid, signal.SIGINT)
            runner.wait(timeout=5)
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            for pid in [runner.pid, *pids]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            runner.wait()


def test_stub_spec_desk_scales_and_caps_compute(tmp_path):
    job = ScheduledJob(
        3,
        "x",
        (),
        (Phase(PhaseKind.COMPUTE, duration_s=50.0), Phase(PhaseKind.COMPUTE, duration_s=500.0)),
        {"member": 1},
    )
    spec = stub_spec(job, tmp_path, 10.0, 30.0)
    assert spec == {
        "job_id": 3,
        "name": "x",
        "workdir": str(tmp_path),
        "phases": [
            {"kind": "compute", "bytes": 0, "ranks": 1, "duration_s": 5.0},
            {"kind": "compute", "bytes": 0, "ranks": 1, "duration_s": 30.0},
        ],
        "metadata": {"member": 1},
    }


def random_dag(rng, max_nodes=50):
    n = rng.randint(2, max_nodes)
    jobs = []
    for i in range(n):
        deps = [j for j in range(i) if rng.random() < 0.15]
        fail = rng.random() < 0.05
        jobs.append(sjob(i, deps, compute=rng.uniform(0, 2e-4) * 1e6, metadata={"fail": fail}))
    return doc_of(jobs)


def check_log_invariants(doc, log, parallelism):
    entries = log.by_id()
    assert sorted(entries) == [j.job_id for j in doc.jobs]
    # dependency safety: children start after parents end, and never run
    # when a parent did not succeed
    for job in doc.jobs:
        e = entries[job.job_id]
        if e.status == "skipped":
            assert any(entries[d].status != "ok" for d in job.depends_on)
            continue
        for dep in job.depends_on:
            assert entries[dep].status == "ok"
            assert e.start_wallclock >= entries[dep].end_wallclock
    # concurrency bound via interval overlap
    points = []
    for e in log.entries:
        if e.status == "skipped":
            continue
        points.append((e.start_wallclock, 1))
        points.append((e.end_wallclock, -1))
    load, peak = 0, 0
    for _, delta in sorted(points, key=lambda p: (p[0], p[1])):
        load += delta
        peak = max(peak, load)
    assert peak <= parallelism


def test_topo_order_is_edge_respecting_permutation():
    rng = random.Random(77)
    for _ in range(50):
        doc = random_dag(rng, max_nodes=40)
        order = topo_order(doc)
        assert sorted(order) == [j.job_id for j in doc.jobs]
        position = {jid: k for k, jid in enumerate(order)}
        for job in doc.jobs:
            for dep in job.depends_on:
                assert position[dep] < position[job.job_id]


def test_random_dags_dependency_safety_and_concurrency_bound(tmp_path):
    rng = random.Random(20260811)
    for trial in range(40):
        doc = random_dag(rng, max_nodes=30)
        parallelism = rng.randint(1, 4)
        log = execute(doc, backend=FAST, workdir=tmp_path / str(trial), parallelism=parallelism)
        check_log_invariants(doc, log, parallelism)


def test_io_scale_linearity_in_run_bytes(tmp_path):
    # the path of `epsim schedule --io-scale` followed by `epsim execute`
    profiles = [profile("A", write=12345), profile("B", write=55555)]
    totals = {}
    for factor in (1, 2, 3):
        scenario = Scenario(io_scale=float(factor))
        doc = generate_schedule(profiles, [DependencyEdge("A", "B")], EnsembleConfig(1, 1), scenario)
        log = execute(doc, backend=FAST, workdir=tmp_path / str(factor))
        totals[factor] = sum(e.bytes_written for e in log.entries)
    assert totals[2] == 2 * totals[1]
    assert totals[3] == 3 * totals[1]


class TestKjsRoundTrip:
    def test_dict_round_trip(self):
        doc = doc_of([sjob(0, write=10), sjob(1, [0], compute=2.0, metadata={"member": 3})])
        assert schedule_from_dict(schedule_to_dict(doc)) == doc

    def test_file_round_trip(self, tmp_path):
        doc = doc_of([sjob(0), sjob(1, [0])])
        path = tmp_path / "t.kjs"
        save_schedule(doc, path)
        assert load_schedule(path) == doc

    def test_bundled_generation_round_trips(self, tmp_path):
        profiles = [profile(name) for name in _bundled_job_names()]
        edges = list(load_edges(edges_path()))
        doc = generate_schedule(profiles, edges, EnsembleConfig(1, 1))
        path = tmp_path / "suite.kjs"
        save_schedule(doc, path)
        assert load_schedule(path) == doc

    def test_loaded_jobs_of_one_name_share_one_phases_tuple(self, tmp_path):
        doc = generate_schedule(bundled_profiles(), list(load_edges(edges_path())), EnsembleConfig(1, 3))
        path = tmp_path / "suite.kjs"
        save_schedule(doc, path)
        loaded = load_schedule(path)
        first = {}
        for job in loaded.jobs:
            assert job.phases is first.setdefault(job.name, job.phases), job.name
        assert len(first) == 16 and len(loaded.jobs) == 48
        assert len({id(p) for p in first.values()}) == 16  # the names' phase lists all differ
        # shared again, the tuples are written as the generated document was
        again = tmp_path / "again.kjs"
        save_schedule(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def _bundled_job_names():
    return [j.name for j in load_bundled_model().jobs]


def test_bundled_single_member_schedule_size():
    # one control member's workload: every profiled job exactly once
    profiles = [profile(name) for name in _bundled_job_names()]
    edges = list(load_edges(edges_path()))
    doc = generate_schedule(profiles, edges, EnsembleConfig(1, 1))
    assert len(doc.jobs) == 16
    order = topo_order(doc)
    assert len(order) == 16


def test_bundled_schedule_with_catalog_honors_roles():
    model = load_bundled_model()
    profiles = [profile(j.name) for j in model.jobs]
    edges = list(load_edges(edges_path()))
    catalog = {j.name: j for j in model.jobs}
    doc = generate_schedule(profiles, edges, EnsembleConfig(1, 1), catalog=catalog)
    names = [j.name for j in doc.jobs]
    assert "PertAna" not in names  # perturbed-only job vanishes at n=N=1
    assert names.count("gl_bd") == 13


def test_profiled_job_missing_from_the_catalog_is_an_error():
    model = load_bundled_model()
    profiles = [profile(j.name) for j in model.jobs] + [profile("Extra")]
    catalog = {j.name: j for j in model.jobs}
    with pytest.raises(SuiteError, match=r"^profiled job not in the model catalog: Extra$"):
        generate_schedule(profiles, list(load_edges(edges_path())), EnsembleConfig(2, 4), catalog=catalog)
