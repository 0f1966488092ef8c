"""Deterministic discrete-event simulation of an instance graph on a cluster.

Plain list scheduling: an instance becomes ready when all predecessors have
finished, and ready instances are started greedily in (ready_time, id) order
whenever node, core and queue capacity allow. Identical inputs always produce
an identical event log.

Ready instances wait in one heap per (queue, cores) class. Capacity only
shrinks within a dispatch pass, so a pass merges the class heads and drops a
class at its first miss: it starts what a scan of every ready instance would,
in the same order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .codec import dump_json
from .errors import InfeasibleInstance, InvalidCluster, InvalidDuration
from .model import ClusterSpec, InstanceGraph, JobCategory, QueueSpec, topological_order

DEFAULT_QUEUE = QueueSpec(exclusive_nodes=True, max_concurrent_jobs=None)


class EventKind(str, Enum):
    SUBMIT = "Submit"
    START = "Start"
    FINISH = "Finish"


# the simulator's events are (time, kind, rank) tuples, kinds in their order at equal times
_KINDS = (EventKind.FINISH, EventKind.SUBMIT, EventKind.START)
_FINISH, _SUBMIT, _START = range(3)


class SimEvent(NamedTuple):  # three per instance: builds ~10x faster than a frozen dataclass
    instance_id: str
    kind: EventKind
    time_s: float


@dataclass
class SimulationResult:
    """A simulated schedule in the simulator's own arrays: the sorted (time,
    kind, rank) `rank_events`, kind k being `_KINDS[k]`, and `rank_ids`,
    `start_s` and `finish_s` by rank. The id-keyed views `events`,
    `start_times` and `finish_times` are built on first access."""

    makespan_s: float
    critical_path: list[str]
    critical_path_s: float
    per_node_busy_s: dict[int, float]
    per_category_busy_s: dict[JobCategory, float]
    nodes_used: int
    rank_events: list[tuple[float, int, int]]
    rank_ids: list[str]
    start_s: list[float]
    finish_s: list[float]

    @cached_property
    def events(self) -> list[SimEvent]:
        ids = self.rank_ids
        return [SimEvent(ids[r], _KINDS[k], t) for t, k, r in self.rank_events]

    @cached_property
    def start_times(self) -> dict[str, float]:
        return dict(zip(self.rank_ids, self.start_s))

    @cached_property
    def finish_times(self) -> dict[str, float]:
        return dict(zip(self.rank_ids, self.finish_s))


def critical_path(graph: InstanceGraph) -> tuple[float, list[str]]:
    """Longest duration-weighted path; ties broken by lexicographic instance id."""
    preds, ranked = graph.pred_ranks, graph.ranked
    for r, inst in enumerate(ranked):
        if not 0.0 <= inst.duration_s < math.inf:  # NaN fails every comparison
            raise InvalidDuration(graph.rank_ids[r], inst.duration_s)
    order = topological_order(preds, graph.succ_ranks, graph.rank_ids)  # raises CycleDetected
    dist = [0.0] * len(order)
    best_pred = [-1] * len(order)
    for node in order:
        best, pick = 0.0, -1
        for p in preds[node]:
            if dist[p] > best:  # preds are sorted, so a tie keeps the smaller rank
                best, pick = dist[p], p
        dist[node] = ranked[node].duration_s + best
        best_pred[node] = pick
    length = max(dist, default=0.0)
    node = dist.index(length) if dist else -1  # the smallest rank of the longest paths
    chain: list[str] = []
    while node >= 0:
        chain.append(graph.rank_ids[node])
        node = best_pred[node]
    chain.reverse()
    return length, chain


def node_demand(cores: int, queue: QueueSpec, cluster: ClusterSpec) -> int:
    """Whole nodes for exclusive queues; 0 for shared (core-level) placement."""
    if queue.exclusive_nodes:
        return -(-cores // cluster.cores_per_node)
    return 0


class _NodePool:
    """Node states for placement; ids are allocated lowest-first.

    A node is either free, reserved whole by exclusive instances, or hosting
    shared instances up to cores_per_node cores (`shared_cores`). Every free
    id below `high_water` is in the min-heap `free`; every id at or above it
    has never been used. Unlimited clusters draw from an unbounded id space.
    """

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self.limit = cluster.node_count  # None = unlimited
        self.free: list[int] = []
        self.shared_cores: dict[int, int] = {}
        self.high_water = 0

    def place(self, cores: int, queue: QueueSpec) -> tuple[int, ...] | None:
        """Take the nodes for one instance, or return None if it does not fit now."""
        if not queue.exclusive_nodes:
            fits = [n for n, used in self.shared_cores.items() if used + cores <= self.cluster.cores_per_node]
            if fits:
                nid = min(fits)
                self.shared_cores[nid] += cores
                return (nid,)
        need = node_demand(cores, queue, self.cluster) if queue.exclusive_nodes else 1
        if self.limit is not None and len(self.free) + self.limit - self.high_water < need:
            return None
        ids = [heapq.heappop(self.free) for _ in range(min(need, len(self.free)))]
        fresh = need - len(ids)
        ids.extend(range(self.high_water, self.high_water + fresh))
        self.high_water += fresh
        if not queue.exclusive_nodes:
            self.shared_cores[ids[0]] = cores
        return tuple(ids)

    def release(self, ids: tuple[int, ...], cores: int, queue: QueueSpec) -> None:
        if not queue.exclusive_nodes:
            (nid,) = ids
            self.shared_cores[nid] -= cores
            if self.shared_cores[nid] > 0:
                return
            del self.shared_cores[nid]
        for nid in ids:
            heapq.heappush(self.free, nid)


def simulate(graph: InstanceGraph, cluster: ClusterSpec) -> SimulationResult:
    """Event-driven list scheduling of the instance graph on the cluster.

    Raises CycleDetected when the graph has a dependency cycle,
    InvalidCluster when an instance's queue admits no job (a
    max_concurrent_jobs below 1), InfeasibleInstance when an instance
    needs more nodes or cores than the idle cluster has, and InvalidDuration
    when an instance's duration is not finite and >= 0; all are raised
    before any event is produced.
    """
    queues = dict(cluster.queues)
    classes: dict[tuple[str, int], list[tuple[float, int]]] = {}  # heaps of (ready_time, rank)
    class_of = [classes.setdefault((inst.queue, inst.cores), []) for inst in graph.ranked]
    for (qid, cores), heap in classes.items():  # ordered by each class's first rank
        q = queues.setdefault(qid, DEFAULT_QUEUE)
        if q.max_concurrent_jobs is not None and q.max_concurrent_jobs < 1:
            raise InvalidCluster(f"queue {qid!r} admits no job: max_concurrent_jobs is {q.max_concurrent_jobs}")
        if q.exclusive_nodes:
            need, have = node_demand(cores, q, cluster), cluster.node_count
        else:  # one node's cores, of which the idle cluster has enough or none
            need, have = 1, int(cores <= cluster.cores_per_node)
        if have is not None and need > have:  # name the class's first instance
            raise InfeasibleInstance(graph.rank_ids[next(r for r, h in enumerate(class_of) if h is heap)], need, have)

    duration = [inst.duration_s for inst in graph.ranked]
    cp_len, cp_chain = critical_path(graph)  # raises InvalidDuration, then CycleDetected

    n = len(graph)
    succs = graph.succ_ranks
    pending_preds = [len(p) for p in graph.pred_ranks]
    events: list[tuple[float, int, int]] = []  # (time, kind, rank)
    start = [0.0] * n
    finish = [0.0] * n
    running: list[tuple[float, int]] = []  # heap of (finish_time, rank)
    queue_load: dict[str, int] = {qid: 0 for qid in queues}
    placements: list[tuple[int, ...]] = [()] * n
    pool = _NodePool(cluster)
    node_intervals: dict[int, list[tuple[float, float]]] = {}

    def submit(r: int, t: float) -> None:
        events.append((t, _SUBMIT, r))
        heapq.heappush(class_of[r], (t, r))

    for r, p in enumerate(pending_preds):
        if not p:
            submit(r, 0.0)

    def try_dispatch(now: float) -> None:
        # greedy pass in (ready_time, rank) order over the class heads; instances
        # that do not fit right now stay ready and are retried at the next event
        heads = [(h[0], key, h) for key, h in classes.items() if h]
        heapq.heapify(heads)
        while heads:
            (_, r), key, h = heads[0]
            qid, cores = key
            q = queues[qid]
            admits = q.max_concurrent_jobs is None or queue_load[qid] < q.max_concurrent_jobs
            ids = pool.place(cores, q) if admits else None
            if ids is None:
                heapq.heappop(heads)
                continue
            heapq.heappop(h)
            if h:
                heapq.heapreplace(heads, (h[0], key, h))
            else:
                heapq.heappop(heads)
            placements[r] = ids
            queue_load[qid] += 1
            start[r] = now
            finish[r] = fin = now + duration[r]
            events.append((now, _START, r))
            heapq.heappush(running, (fin, r))

    try_dispatch(0.0)
    while running:
        now = running[0][0]
        finished: list[int] = []
        while running and running[0][0] == now:
            finished.append(heapq.heappop(running)[1])
        for r in sorted(finished):
            inst = graph.ranked[r]
            events.append((now, _FINISH, r))
            pool.release(placements[r], inst.cores, queues[inst.queue])
            queue_load[inst.queue] -= 1
            for nid in placements[r]:
                node_intervals.setdefault(nid, []).append((start[r], now))
            for succ in succs[r]:
                pending_preds[succ] -= 1
                if not pending_preds[succ]:
                    submit(succ, now)
        try_dispatch(now)

    per_node = {nid: _union_length(iv) for nid, iv in sorted(node_intervals.items())}
    per_cat: dict[JobCategory, float] = {}
    for inst in graph.ranked:
        per_cat[inst.category] = per_cat.get(inst.category, 0.0) + inst.duration_s
    events.sort()
    return SimulationResult(
        makespan_s=max(finish, default=0.0),
        critical_path=cp_chain,
        critical_path_s=cp_len,
        per_node_busy_s=per_node,
        per_category_busy_s=per_cat,
        nodes_used=pool.high_water,
        rank_events=events,
        rank_ids=graph.rank_ids,
        start_s=start,
        finish_s=finish,
    )


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, lo, hi = 0.0, 0.0, 0.0  # times are >= 0, so the empty interval at 0 adds nothing
    for s, e in sorted(intervals):
        if s > hi:
            total += hi - lo
            lo = s
        hi = max(hi, e)
    return total + (hi - lo)


def utilization(result: SimulationResult, cluster: ClusterSpec) -> tuple[dict[int, float], float]:
    """Per-node busy fraction and the aggregate Σbusy / (nodes × makespan)."""
    if result.makespan_s == 0:
        return {}, 0.0
    nodes = cluster.node_count if cluster.node_count is not None else result.nodes_used
    per_node = {nid: b / result.makespan_s for nid, b in result.per_node_busy_s.items()}
    if nodes == 0:
        return per_node, 0.0
    aggregate = sum(result.per_node_busy_s.values()) / (nodes * result.makespan_s)
    return per_node, aggregate


def events_csv(result: SimulationResult) -> str:
    """The event log as CSV: a time as its repr, an id holding `,`, `"` or a line break quoted (RFC 4180)."""
    ids = result.rank_ids
    if any(c in "".join(ids) for c in ',"\r\n'):  # one scan of the joined ids, not one per id
        ids = ['"' + i.replace('"', '""') + '"' if any(c in i for c in ',"\r\n') else i for i in ids]
    lines = ["instance_id,kind,time_s\n"]
    last, tails = None, []
    for t, k, r in result.rank_events:
        if t != last:  # events are sorted, so each distinct time's text is made once
            last, tails = t, [f",{kind.value},{t!r}\n" for kind in _KINDS]
        lines.append(ids[r] + tails[k])
    return "".join(lines)


def summary_json(result: SimulationResult, cluster: ClusterSpec) -> str:
    per_node, aggregate = utilization(result, cluster)
    doc = {
        "makespan_s": result.makespan_s,
        "critical_path_s": result.critical_path_s,
        "critical_path": result.critical_path,
        "nodes_used": result.nodes_used,
        "utilization": {str(k): v for k, v in per_node.items()},
        "aggregate_utilization": aggregate,
        "per_category_busy_s": {c.value: v for c, v in sorted(result.per_category_busy_s.items())},
    }
    return dump_json(doc)
