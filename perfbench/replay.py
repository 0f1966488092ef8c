"""Replay check of a simulator event log.

The replay walks the log in order and checks, at every event:
- Start: every predecessor has finished, at or before this time, and the
  cluster is not over capacity once the instance is placed. Capacity means
  exclusive nodes plus the nodes that the shared cores in use need at least
  (ceil(cores / cores_per_node)), against node_count, and running instances
  per queue against max_concurrent_jobs;
- Finish: the instance started and ran for its duration;
- each instance is submitted, started and finished exactly once.

It uses only the log, the instances' queue, cores and duration, the
predecessor lists and the cluster shape, so it does not share code with the
simulator. It also derives the event-log statistics the trace reports.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Cluster:
    node_count: int | None
    cores_per_node: int
    queues: dict[str, tuple[bool, int | None]]  # queue -> (exclusive_nodes, max_concurrent_jobs)


@dataclass
class LogStats:
    dispatch_times: int  # distinct event times
    ready_depth_max: int  # submitted but not started, sampled after each event time
    ready_depth_mean: float
    wait_s_mean: float  # mean start - submit, simulated seconds


def replay(
    events: list[tuple[str, str, float]],
    instances: dict[str, tuple[str, int, float]],
    preds: dict[str, tuple[str, ...]],
    cluster: Cluster,
) -> tuple[list[str], LogStats]:
    """(problems, stats) for a log of (instance_id, kind, time_s); no problems means it passed."""
    problems: list[str] = []

    def problem(msg: str) -> None:
        if len(problems) < MAX_PROBLEMS:
            problems.append(msg)

    cpn = cluster.cores_per_node
    submit: dict[str, float] = {}
    start: dict[str, float] = {}
    finish: dict[str, float] = {}
    excl_nodes = 0
    shared_cores = 0
    queue_load: dict[str, int] = {}
    depths: list[int] = []
    prev_t: float | None = None

    for iid, kind, t in events:
        if prev_t is not None and t != prev_t:
            if t < prev_t:
                problem(f"log goes back in time at {iid} {kind} {t}")
            depths.append(len(submit) - len(start))
        prev_t = t
        if iid not in instances:
            problem(f"unknown instance {iid}")
            continue
        queue, cores, duration = instances[iid]
        exclusive, max_jobs = cluster.queues.get(queue, (True, None))
        if kind == "Submit":
            if iid in submit:
                problem(f"{iid} submitted twice")
            submit[iid] = t
        elif kind == "Start":
            if iid not in submit or iid in start:
                problem(f"{iid} started without a submit, or twice")
            start[iid] = t
            for p in preds.get(iid, ()):
                if p not in finish or finish[p] > t:
                    problem(f"precedence: {iid} starts at {t} before {p} finishes")
            if exclusive:
                excl_nodes += -(-cores // cpn)
            else:
                if cores > cpn:
                    problem(f"capacity: {iid} needs {cores} cores on a {cpn}-core node")
                shared_cores += cores
            queue_load[queue] = queue_load.get(queue, 0) + 1
            nodes = excl_nodes + -(-shared_cores // cpn)
            if cluster.node_count is not None and nodes > cluster.node_count:
                problem(f"capacity: {nodes} nodes in use at {t} on {cluster.node_count}")
            if max_jobs is not None and queue_load[queue] > max_jobs:
                problem(f"capacity: queue {queue} runs {queue_load[queue]} > {max_jobs} at {t}")
        elif kind == "Finish":
            if iid not in start or iid in finish:
                problem(f"{iid} finished without a start, or twice")
                continue
            finish[iid] = t
            if abs((t - start[iid]) - duration) > 1e-9 * max(1.0, abs(t)):
                problem(f"{iid} ran {t - start[iid]} s, expected {duration}")
            if exclusive:
                excl_nodes -= -(-cores // cpn)
            else:
                shared_cores -= cores
            queue_load[queue] -= 1
        else:
            problem(f"unknown event kind {kind!r}")
    if prev_t is not None:
        depths.append(len(submit) - len(start))

    missing = len(instances) - len(finish)
    if missing:
        problem(f"{missing} instances never finished")

    waits = [start[i] - submit[i] for i in start if i in submit]
    stats = LogStats(
        dispatch_times=len(depths),
        ready_depth_max=max(depths, default=0),
        ready_depth_mean=sum(depths) / len(depths) if depths else 0.0,
        wait_s_mean=sum(waits) / len(waits) if waits else 0.0,
    )
    return problems, stats
