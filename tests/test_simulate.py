import csv
import io
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_data as oracle
import strategies

from epsim.errors import CycleDetected, InfeasibleInstance, InvalidCluster, InvalidDuration
from epsim.model import (
    ClusterSpec,
    Instance,
    InstanceGraph,
    JobCategory,
    QueueSpec,
    expand_instances,
    validate_suite,
)
from epsim.simulate import (
    EventKind,
    SimEvent,
    critical_path,
    events_csv,
    node_demand,
    simulate,
    utilization,
)

NP_NS = {"np": QueueSpec(True), "ns": QueueSpec(False)}
UNLIMITED = ClusterSpec(node_count=None, cores_per_node=1, queues=NP_NS)


def inst(iid, duration, queue="np", cores=1):
    return Instance(
        id=iid, job=iid, member=0, wave=0, slot=0, duration_s=duration,
        category=JobCategory.OTHER, queue=queue, cores=cores,
    )


def graph_of(nodes, edges=()):
    return InstanceGraph(list(nodes), set(edges))


# ---------------------------------------------------------------------------
# independent brute-force replay of the same list-scheduling policy


def oracle_makespan(graph, cluster):
    """Time-stepping replay with an explicit node array; no heaps, no pools.

    Returns the makespan and each instance's start time.
    """
    cpn = cluster.cores_per_node
    if cluster.node_count is not None:
        n_nodes = cluster.node_count
    else:
        n_nodes = sum(
            max(1, -(-graph.instances[i].cores // cpn)) for i in graph.ids()
        )
    excl = [False] * n_nodes
    cores_used = [0] * n_nodes
    queues = dict(cluster.queues)
    queue_running = {}
    finish = {}
    running = []  # (end, iid, node_ids)
    started = {}
    t = 0.0

    def try_start_all():
        candidates = []
        for iid in graph.ids():
            if iid in started:
                continue
            preds = graph.preds[iid]
            if not all(p in finish for p in preds):
                continue
            ready = max((finish[p] for p in preds), default=0.0)
            if ready <= t:
                candidates.append((ready, iid))
        for ready, iid in sorted(candidates):
            i = graph.instances[iid]
            q = queues.setdefault(i.queue, QueueSpec())
            if q.max_concurrent_jobs is not None:
                if queue_running.get(i.queue, 0) >= q.max_concurrent_jobs:
                    continue
            if q.exclusive_nodes:
                need = -(-i.cores // cpn)
                free = [k for k in range(n_nodes) if not excl[k] and cores_used[k] == 0]
                if len(free) < need:
                    continue
                ids = free[:need]
                for k in ids:
                    excl[k] = True
            else:
                ids = None
                for k in range(n_nodes):
                    if not excl[k] and 0 < cores_used[k] and cores_used[k] + i.cores <= cpn:
                        ids = [k]
                        break
                if ids is None:
                    for k in range(n_nodes):
                        if not excl[k] and cores_used[k] == 0:
                            ids = [k]
                            break
                if ids is None:
                    continue
                cores_used[ids[0]] += i.cores
            started[iid] = t
            queue_running[i.queue] = queue_running.get(i.queue, 0) + 1
            running.append((t + i.duration_s, iid, tuple(ids)))

    try_start_all()
    while running:
        t = min(end for end, _, _ in running)
        for end, iid, ids in [r for r in running if r[0] == t]:
            running.remove((end, iid, ids))
            finish[iid] = end
            i = graph.instances[iid]
            q = queues[i.queue]
            queue_running[i.queue] -= 1
            if q.exclusive_nodes:
                for k in ids:
                    excl[k] = False
            else:
                cores_used[ids[0]] -= i.cores
        try_start_all()
    if len(finish) != len(graph):
        raise InfeasibleInstance("<oracle stuck>", -1, -1)
    return max(finish.values(), default=0.0), started


# ---------------------------------------------------------------------------
# critical path


class TestCriticalPath:
    def test_two_step_chain(self):
        g = graph_of([inst("A", 1.0), inst("B", 2.0)], {("A", "B")})
        length, chain = critical_path(g)
        assert length == 3.0
        assert chain == ["A", "B"]

    def test_parallel_branches_take_max(self):
        g = graph_of(
            [inst("S", 0.5), inst("long", 5.0), inst("short", 3.0), inst("J", 0.5)],
            {("S", "long"), ("S", "short"), ("long", "J"), ("short", "J")},
        )
        length, chain = critical_path(g)
        assert length == pytest.approx(6.0)
        assert chain == ["S", "long", "J"]

    def test_bundled_control_member_chain(self, bundled_model):
        graph = expand_instances(bundled_model)
        length, chain = critical_path(graph)
        assert length == pytest.approx(oracle.EXPECTED_CTRL_PATH_S)
        # the chain runs through a control member (deterministically member 0)
        assert all(graph.instances[i].member == 0 for i in chain)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_bad_duration_is_rejected(self, bad):
        # with a NaN on A, the longest path once came back as (nan, ["A"]) instead of (5.0, ["B"])
        g = graph_of([inst("A", bad), inst("B", 5.0), inst("C", 1.0)], {("A", "C")})
        with pytest.raises(InvalidDuration) as exc:
            critical_path(g)
        assert exc.value.instance_id == "A"

    def test_cycle_detected(self):
        g = graph_of(
            [inst("A", 1.0), inst("B", 1.0), inst("C", 1.0)],
            {("A", "B"), ("B", "A"), ("B", "C")},
        )
        for run in (lambda: critical_path(g), lambda: simulate(g, UNLIMITED)):
            with pytest.raises(CycleDetected) as exc:
                run()
            assert str(exc.value) == "dependency cycle: A -> B -> A"

    def test_cycle_is_named_by_ids_in_id_order(self):
        # instances listed against id order: the walk starts from the smallest id
        g = graph_of(
            [inst("z", 1.0), inst("m", 1.0), inst("a", 1.0)],
            {("z", "m"), ("m", "z"), ("a", "m")},
        )
        for run in (lambda: critical_path(g), lambda: simulate(g, UNLIMITED)):
            with pytest.raises(CycleDetected) as exc:
                run()
            assert exc.value.cycle == ["m", "z", "m"]

    def test_empty_graph(self):
        assert critical_path(graph_of([])) == (0.0, [])


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    def test_unlimited_nodes_reach_critical_path(self, bundled_model):
        graph = expand_instances(bundled_model)
        result = simulate(graph, bundled_model.cluster)
        assert result.makespan_s == pytest.approx(oracle.EXPECTED_CTRL_PATH_S)
        assert result.makespan_s == pytest.approx(result.critical_path_s)

    def test_single_node_serializes(self):
        g = graph_of([inst("A", 2.0), inst("B", 3.0), inst("C", 4.0)])
        cluster = ClusterSpec(node_count=1, cores_per_node=1, queues=NP_NS)
        result = simulate(g, cluster)
        assert result.makespan_s == pytest.approx(9.0)

    def test_capacity_never_binds_with_unlimited_nodes(self):
        g = graph_of([inst(f"t{i}", 1.0) for i in range(10)])
        result = simulate(g, UNLIMITED)
        assert result.makespan_s == pytest.approx(1.0)

    def test_event_ordering_fields(self):
        g = graph_of([inst("A", 1.0), inst("B", 2.0)], {("A", "B")})
        result = simulate(g, UNLIMITED)
        by_instance = {}
        for e in result.events:
            by_instance.setdefault(e.instance_id, {})[e.kind] = e.time_s
        for iid, times in by_instance.items():
            assert times[EventKind.SUBMIT] <= times[EventKind.START]
            assert times[EventKind.FINISH] - times[EventKind.START] == pytest.approx(
                g.instances[iid].duration_s
            )
        assert by_instance["B"][EventKind.START] >= by_instance["A"][EventKind.FINISH]

    def test_infeasible_instance(self):
        g = graph_of([inst("big", 1.0, cores=10)])
        cluster = ClusterSpec(node_count=2, cores_per_node=2, queues=NP_NS)
        with pytest.raises(InfeasibleInstance):
            simulate(g, cluster)

    def test_shared_queue_packs_cores(self):
        # four 1-core shared jobs fit one 4-core node; an exclusive job needs its own
        g = graph_of([inst(f"s{i}", 1.0, queue="ns") for i in range(4)] + [inst("x", 1.0)])
        cluster = ClusterSpec(node_count=2, cores_per_node=4, queues=NP_NS)
        result = simulate(g, cluster)
        assert result.makespan_s == pytest.approx(1.0)
        assert result.nodes_used == 2

    def test_queue_concurrency_limit(self):
        queues = {"np": QueueSpec(True, max_concurrent_jobs=1)}
        cluster = ClusterSpec(node_count=None, cores_per_node=1, queues=queues)
        g = graph_of([inst("A", 1.0), inst("B", 1.0)])
        result = simulate(g, cluster)
        assert result.makespan_s == pytest.approx(2.0)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_queue_admitting_no_job_is_rejected_before_any_event(self, limit):
        # called directly, without validate_suite in front
        queues = {"np": QueueSpec(True), "ns": QueueSpec(False, limit)}
        cluster = ClusterSpec(node_count=4, cores_per_node=4, queues=queues)
        g = graph_of([inst("A", 1.0), inst("B", 1.0, queue="ns")], {("A", "B")})
        with pytest.raises(InvalidCluster) as exc:
            simulate(g, cluster)
        assert str(exc.value) == f"queue 'ns' admits no job: max_concurrent_jobs is {limit}"

    def test_deterministic_event_log(self, bundled_model):
        graph = expand_instances(bundled_model)
        first = events_csv(simulate(graph, bundled_model.cluster))
        second = events_csv(simulate(expand_instances(bundled_model), bundled_model.cluster))
        assert first == second


class TestUtilization:
    def test_single_job_full_node(self):
        g = graph_of([inst("A", 5.0)])
        cluster = ClusterSpec(node_count=1, cores_per_node=1, queues=NP_NS)
        result = simulate(g, cluster)
        per_node, aggregate = utilization(result, cluster)
        assert per_node == {0: pytest.approx(1.0)}
        assert aggregate == pytest.approx(1.0)

    def test_two_parallel_jobs_two_nodes(self):
        g = graph_of([inst("A", 5.0), inst("B", 5.0)])
        cluster = ClusterSpec(node_count=2, cores_per_node=1, queues=NP_NS)
        _, aggregate = utilization(simulate(g, cluster), cluster)
        assert aggregate == pytest.approx(1.0)

    def test_serialized_chain_on_two_nodes(self):
        g = graph_of([inst("A", 5.0), inst("B", 5.0)], {("A", "B")})
        cluster = ClusterSpec(node_count=2, cores_per_node=1, queues=NP_NS)
        _, aggregate = utilization(simulate(g, cluster), cluster)
        assert aggregate == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# properties


def _demand_fits(graph, cluster):
    for iid in graph.ids():
        i = graph.instances[iid]
        q = cluster.queues.get(i.queue, QueueSpec())
        if q.exclusive_nodes:
            need = node_demand(i.cores, q, cluster)
            if cluster.node_count is not None and need > cluster.node_count:
                return False
        elif i.cores > cluster.cores_per_node:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(strategies.instance_graphs(max_nodes=8), strategies.small_clusters(max_nodes=2))
def test_matches_bruteforce_replay_oracle(graph, cluster):
    assume(_demand_fits(graph, cluster))
    result = simulate(graph, cluster)
    assert result.makespan_s == pytest.approx(oracle_makespan(graph, cluster)[0], rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(strategies.small_clusters(max_nodes=4), st.data())
def test_start_times_match_bruteforce_replay_oracle(cluster, data):
    # the same schedule, not just the same makespan: an instance started out
    # of (ready_time, id) order, or held back while it fits, moves a start.
    # Shared instances fit a node, so no example is thrown away as infeasible
    graph = data.draw(
        strategies.instance_graphs(max_nodes=20, max_cores=cluster.cores_per_node, max_preds=2)
    )
    assert simulate(graph, cluster).start_times == oracle_makespan(graph, cluster)[1]


@settings(max_examples=100, deadline=None)
@given(strategies.instance_graphs(max_nodes=10), strategies.small_clusters(max_nodes=3))
def test_lower_bounds_and_safety(graph, cluster):
    assume(_demand_fits(graph, cluster))
    result = simulate(graph, cluster)
    cp_len, _ = critical_path(graph)
    assert result.makespan_s >= cp_len - 1e-9
    exclusive_work = sum(
        i.duration_s * node_demand(i.cores, cluster.queues.get(i.queue, QueueSpec()), cluster)
        for i in graph.instances.values()
        if cluster.queues.get(i.queue, QueueSpec()).exclusive_nodes
    )
    if cluster.node_count is not None:
        assert result.makespan_s >= exclusive_work / cluster.node_count - 1e-9
    for iid in graph.ids():
        for p in graph.preds[iid]:
            assert result.start_times[iid] >= result.finish_times[p] - 1e-12


@settings(max_examples=150, deadline=None)
@given(strategies.instance_graphs(max_nodes=12), st.integers(min_value=1, max_value=4))
def test_graham_list_scheduling_upper_bound(graph, m):
    # every instance takes one whole node on a queue without a concurrency
    # limit, so Graham's bound for greedy list scheduling on m machines holds:
    # makespan <= work/m + (1 - 1/m) * critical_path
    cluster = ClusterSpec(
        node_count=m, cores_per_node=4, queues={"np": QueueSpec(True), "ns": QueueSpec(True)}
    )
    longest = {}
    for iid in sorted(graph.ids()):  # the strategy only adds edges from lower to higher ids
        longest[iid] = graph.instances[iid].duration_s + max(
            (longest[p] for p in graph.preds[iid]), default=0.0
        )
    work = sum(i.duration_s for i in graph.instances.values())
    bound = work / m + (1 - 1 / m) * max(longest.values())
    assert simulate(graph, cluster).makespan_s <= bound * (1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(strategies.instance_graphs(max_nodes=10))
def test_critical_path_chain_is_consistent(graph):
    length, chain = critical_path(graph)
    assert sum(graph.instances[i].duration_s for i in chain) == pytest.approx(length)
    for a, b in zip(chain, chain[1:]):
        assert a in graph.preds[b]


@settings(max_examples=60, deadline=None)
@given(strategies.instance_graphs(max_nodes=8), strategies.small_clusters(max_nodes=2))
def test_capacity_respected_at_start_events(graph, cluster):
    assume(_demand_fits(graph, cluster))
    result = simulate(graph, cluster)
    # count occupied nodes over the event timeline
    points = sorted({e.time_s for e in result.events})
    for t in points:
        occupied = 0.0
        for iid in graph.ids():
            if iid not in result.start_times:
                continue
            if result.start_times[iid] <= t < result.finish_times[iid]:
                i = graph.instances[iid]
                q = cluster.queues.get(i.queue, QueueSpec())
                occupied += node_demand(i.cores, q, cluster) if q.exclusive_nodes else (
                    i.cores / cluster.cores_per_node
                )
        if cluster.node_count is not None:
            assert occupied <= cluster.node_count + 1e-9


# ---------------------------------------------------------------------------
# bad durations


BAD_DURATIONS = ["nan", "inf", "-inf", "-1.0"]


def test_bad_duration_is_rejected_before_any_event():
    # a NaN finish time never leaves the running heap, and the event loop used
    # to spin on it for ever: the calls run in a child that a timeout stops
    child = textwrap.dedent(f"""
        from epsim.errors import InvalidDuration
        from epsim.model import ClusterSpec, Instance, InstanceGraph, JobCategory, QueueSpec
        from epsim.simulate import simulate

        for text in {BAD_DURATIONS!r}:
            graph = InstanceGraph(
                [Instance(i, i, 0, 0, 0, d, JobCategory.OTHER, "np", 1) for i, d in (("A", 1.0), ("B", float(text)))],
                [("A", "B")],
            )
            for nodes in (None, 1):
                try:
                    simulate(graph, ClusterSpec(node_count=nodes, cores_per_node=1, queues={{"np": QueueSpec(True)}}))
                except InvalidDuration as exc:
                    print(exc.instance_id, exc)
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        f"B instance B lasts {float(text)!r} s; a duration must be finite and >= 0"
        for text in BAD_DURATIONS
        for _ in range(2)
    ]


# ---------------------------------------------------------------------------
# the event log against the stdlib csv writer


KINDS_AT_EQUAL_TIMES = (EventKind.FINISH, EventKind.SUBMIT, EventKind.START)
ODD_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "→", "😀"]), max_size=4)


def csv_writer_log(events):
    """The event log as csv.writer writes it, a float as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["instance_id", "kind", "time_s"])
    writer.writerows([(e.instance_id, e.kind.value, e.time_s) for e in events])
    return buf.getvalue()


@st.composite
def oddly_named_models(draw):
    model = draw(strategies.suite_models(max_jobs=4))
    # distinct leading digits keep the instance ids of different jobs distinct
    names = {j.name: f"{k}{draw(ODD_TEXT)}" for k, j in enumerate(model.jobs)}
    return replace(
        model,
        jobs=tuple(replace(j, name=names[j.name]) for j in model.jobs),
        edges=tuple(replace(e, from_job=names[e.from_job], to_job=names[e.to_job]) for e in model.edges),
    )


@settings(max_examples=100, deadline=None)
@given(oddly_named_models(), st.sampled_from([None, 2]))
def test_events_csv_writes_the_bytes_of_csv_writer(model, nodes):
    cluster = replace(model.cluster, node_count=nodes, cores_per_node=72)  # every drawn job fits a node
    graph = expand_instances(model)
    result = simulate(graph, cluster)

    ids = graph.rank_ids
    events = [SimEvent(ids[r], KINDS_AT_EQUAL_TIMES[k], t) for t, k, r in result.rank_events]
    assert type(result.events) is list and all(type(e) is SimEvent for e in result.events)
    assert result.events == events
    for view, kind in ((result.start_times, EventKind.START), (result.finish_times, EventKind.FINISH)):
        assert type(view) is dict and list(view) == ids
        assert view == {e.instance_id: e.time_s for e in events if e.kind is kind}
        assert all(type(t) is float for t in view.values())

    log = events_csv(result)
    if not any("\r" in i for i in ids):  # csv leaves a bare "\r" unquoted under a "\n" terminator
        assert log.split("\n") == csv_writer_log(events).split("\n")  # lines: pytest diffs a long text slowly
    rows = [[e.instance_id, e.kind.value, repr(e.time_s)] for e in events]
    assert list(csv.reader(io.StringIO(log, newline=""))) == [["instance_id", "kind", "time_s"], *rows]


def test_events_csv_quotes_a_carriage_return():
    # RFC 4180 quotes a line break; left bare, csv.reader ends the row at it
    log = events_csv(simulate(graph_of([inst('a\r"b', 1.0)]), UNLIMITED))
    assert log == 'instance_id,kind,time_s\n' + "".join(
        f'"a\r""b",{kind},{t}\n' for kind, t in (("Submit", "0.0"), ("Start", "0.0"), ("Finish", "1.0"))
    )


def test_negative_zero_duration_writes_no_negative_zero(bundled_model):
    # -0.0 passes validation and equals 0.0 as a float key, but times are sums
    # that start from +0.0, so the log never holds a -0.0
    job = replace(bundled_model.jobs[0], wallclock_ctrl_s=-0.0, wallclock_pert_s=-0.0)
    model = replace(bundled_model, jobs=(job, *bundled_model.jobs[1:]))
    assert validate_suite(model).ok
    result = simulate(expand_instances(model), model.cluster)
    log = events_csv(result)
    assert log.split("\n") == csv_writer_log(result.events).split("\n")
    assert not any(line.endswith(",-0.0") for line in log.splitlines())
    assert f"{job.name}:m000:i000,Finish,0.0\n" in log
