"""Domain model for an ensemble forecasting suite.

Types for jobs, categories, member roles, dependencies and the cluster, plus
validation of a suite model and its expansion into a concrete per-member
instance graph. The one topological order and cycle finder that job edges,
instance graphs and schedule documents share live here too.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence, Sized
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .codec import (
    boolean,
    dict_of,
    dump_json,
    enum_of,
    fail,
    integer,
    load_json,
    nullable,
    number,
    obj,
    opt,
    record,
    req,
    string,
    tuple_of,
)
from .errors import CycleDetected, SchemaError

class JobCategory(str, Enum):
    LBCS = "LBCs"
    DATA_ASSIMILATION = "DataAssimilation"
    FORECAST = "Forecast"
    POST_PROCESSING = "PostProcessing"
    OTHER = "Other"


class MemberRole(str, Enum):
    """Which ensemble members a job runs for."""

    ALL = "All"
    CONTROL_ONLY = "ControlOnly"
    PERTURBED_ONLY = "PerturbedOnly"


class EdgeScope(str, Enum):
    SAME_MEMBER = "SameMember"
    CONTROL_TO_ALL = "ControlToAll"
    CONTROL_TO_PERTURBED = "ControlToPerturbed"


class MemberPath(str, Enum):
    """Selector for the serial per-member path (control vs perturbed)."""

    CONTROL = "control"
    PERTURBED = "perturbed"


@dataclass(frozen=True)
class EnergyTerm:
    """Affine energy contribution a·n + b·(N−n) + c·N + d, in kJ."""

    per_control_kj: float = 0.0
    per_perturbed_kj: float = 0.0
    per_any_kj: float = 0.0
    fixed_kj: float = 0.0

    def scaled(self, factor: float) -> "EnergyTerm":
        return EnergyTerm(
            self.per_control_kj * factor,
            self.per_perturbed_kj * factor,
            self.per_any_kj * factor,
            self.fixed_kj * factor,
        )


@dataclass(frozen=True)
class RepetitionSpec:
    """How often a job runs per member: `instances` runs in `waves` sequential waves."""

    instances: int = 1
    waves: int = 1
    wave_widths: tuple[int, ...] = (1,)

    @staticmethod
    def from_counts(instances: int, waves: int) -> "RepetitionSpec":
        """Reconstruct widths from counts alone.

        Prefers the initial-run-then-uniform-batches pattern ([1, q, q, ...])
        when (instances-1) divides evenly over (waves-1); otherwise splits as
        evenly as possible, widest waves first.
        """
        if waves <= 1:
            return RepetitionSpec(instances, 1, (instances,))
        if instances > waves and (instances - 1) % (waves - 1) == 0:
            q = (instances - 1) // (waves - 1)
            return RepetitionSpec(instances, waves, (1,) + (q,) * (waves - 1))
        base, rem = divmod(instances, waves)
        widths = tuple(base + 1 if w < rem else base for w in range(waves))
        return RepetitionSpec(instances, waves, widths)


@dataclass(frozen=True)
class JobProfile:
    """One suite job as measured: timings, energy term and repetition."""

    name: str
    category: JobCategory
    role: MemberRole
    queue: str
    cores_per_member: int
    wallclock_ctrl_s: float
    wallclock_pert_s: float
    energy: EnergyTerm
    repetition: RepetitionSpec = RepetitionSpec()
    contaminated: bool = False
    low_confidence: bool = False

    def wallclock_for(self, path: MemberPath) -> float:
        return self.wallclock_ctrl_s if path is MemberPath.CONTROL else self.wallclock_pert_s

    def runs_on(self, path: MemberPath) -> bool:
        if self.role is MemberRole.ALL:
            return True
        if path is MemberPath.CONTROL:
            return self.role is MemberRole.CONTROL_ONLY
        return self.role is MemberRole.PERTURBED_ONLY


@dataclass(frozen=True)
class DependencyEdge:
    from_job: str
    to_job: str
    scope: EdgeScope = EdgeScope.SAME_MEMBER


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble sizes: n_control control members out of n_total."""

    n_control: int
    n_total: int

    def is_valid(self) -> bool:
        return 1 <= self.n_control <= self.n_total

    def members_for(self, role: MemberRole) -> range:
        """Member indices a role expands to; 0..n_control-1 are control."""
        if role is MemberRole.CONTROL_ONLY:
            return range(self.n_control)
        if role is MemberRole.PERTURBED_ONLY:
            return range(self.n_control, self.n_total)
        return range(self.n_total)


@dataclass(frozen=True)
class QueueSpec:
    exclusive_nodes: bool = True
    max_concurrent_jobs: int | None = None


@dataclass(frozen=True)
class ClusterSpec:
    """Modeled cluster; node_count None means unlimited nodes."""

    node_count: int | None = None
    cores_per_node: int = 36
    queues: dict[str, QueueSpec] = field(default_factory=dict)
    idle_power_kw: float = 0.3


@dataclass(frozen=True)
class SuiteModel:
    ensemble: EnsembleConfig
    cluster: ClusterSpec
    jobs: tuple[JobProfile, ...]
    edges: tuple[DependencyEdge, ...] = ()

    def with_ensemble(self, cfg: EnsembleConfig) -> "SuiteModel":
        return replace(self, ensemble=cfg)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass
class ValidationReport:
    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, code: str, message: str) -> None:
        self.errors.append(ValidationIssue(code, message))

    def warn(self, code: str, message: str) -> None:
        self.warnings.append(ValidationIssue(code, message))


def find_cycle(succs: Sequence[Iterable[int]]) -> list[int] | None:
    """First cycle a depth-first walk over nodes 0..n-1 finds, closed (first == last), or None.

    Roots are visited in index order and successors in the order `succs`
    gives them.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(succs)
    for root in range(len(succs)):
        if color[root] != WHITE:
            continue
        # iterative DFS: path[k] is on the current chain and its successors
        # are consumed from its iterator, so the first cycle is reported in
        # the order a recursive walk would find it
        color[root] = GRAY
        path = [root]
        pending = [iter(succs[root])]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GRAY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    pending.append(iter(succs[nxt]))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def topological_order(preds: Sequence[Sized], succs: Sequence[Iterable[int]], names: Sequence = ()) -> list[int]:
    """Kahn order over nodes 0..n-1, smallest first.

    `preds` and `succs` describe the same edges (an edge listed twice counts
    twice in both); in-degrees are `len(preds[k])`. Raises CycleDetected
    naming a closed cycle, by `names[k]` when names are given.
    """
    indeg = [len(preds[k]) for k in range(len(preds))]
    heap = [k for k, d in enumerate(indeg) if d == 0]  # ascending: already a heap
    order: list[int] = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for nxt in succs[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, nxt)
    if len(order) != len(indeg):
        cycle = find_cycle(succs)
        raise CycleDetected([names[k] for k in cycle] if names else cycle)
    return order


def find_job_cycle(names: list[str], edges: tuple[DependencyEdge, ...]) -> list[str] | None:
    """First job-name cycle in the edge set, or None; ignores unknown endpoints."""
    keys = list(dict.fromkeys(names))
    index = {n: k for k, n in enumerate(keys)}
    succs: list[list[int]] = [[] for _ in keys]
    for e in edges:
        if e.from_job in index and e.to_job in index:
            succs[index[e.from_job]].append(index[e.to_job])
    cycle = find_cycle(succs)
    return cycle and [keys[k] for k in cycle]


def validate_suite(model: SuiteModel) -> ValidationReport:
    """Check structural and role/energy consistency; model is usable iff report.ok."""
    report = ValidationReport()
    seen: set[str] = set()
    for job in model.jobs:
        if job.name in seen:
            report.error("DuplicateJob", f"job {job.name!r} defined twice")
        seen.add(job.name)

    cfg = model.ensemble
    if not cfg.is_valid():
        report.error(
            "InvalidEnsemble",
            f"need 1 <= n_control <= n_total, got ({cfg.n_control}, {cfg.n_total})",
        )
    cl = model.cluster
    if cl.node_count is not None and cl.node_count < 1:
        report.error("InvalidCluster", f"node_count must be >= 1 or null, got {cl.node_count}")
    if cl.cores_per_node < 1:
        report.error("InvalidCluster", f"cores_per_node must be >= 1, got {cl.cores_per_node}")
    if cl.idle_power_kw < 0:
        report.error("InvalidCluster", f"idle_power_kw must be >= 0, got {cl.idle_power_kw}")
    for qid, q in cl.queues.items():
        if q.max_concurrent_jobs is not None and q.max_concurrent_jobs < 1:
            report.error(
                "InvalidCluster",
                f"queue {qid!r}: max_concurrent_jobs must be >= 1 or null, got {q.max_concurrent_jobs}",
            )

    for job in model.jobs:
        t = job.energy
        if min(t.per_control_kj, t.per_perturbed_kj, t.per_any_kj, t.fixed_kj) < 0:
            report.error("NegativeEnergy", f"{job.name}: energy coefficients must be >= 0")
        if job.wallclock_ctrl_s < 0 or job.wallclock_pert_s < 0:
            report.error("NegativeWallclock", f"{job.name}: wall-clock must be >= 0")
        if job.cores_per_member < 1:
            report.error("InvalidCores", f"{job.name}: cores_per_member must be >= 1")
        rep = job.repetition
        if rep.instances < 1 or rep.waves < 1:
            report.error("InvalidRepetition", f"{job.name}: instances and waves must be >= 1")
        elif len(rep.wave_widths) != rep.waves or sum(rep.wave_widths) != rep.instances:
            report.error(
                "InvalidRepetition",
                f"{job.name}: wave_widths {list(rep.wave_widths)} do not partition "
                f"{rep.instances} instances into {rep.waves} waves",
            )
        elif min(rep.wave_widths) < 1:
            report.error("InvalidRepetition", f"{job.name}: wave_widths {list(rep.wave_widths)} include an empty wave")
        if job.role is MemberRole.CONTROL_ONLY:
            if job.wallclock_pert_s != 0 or job.energy.per_perturbed_kj != 0 or job.energy.per_any_kj != 0:
                report.error(
                    "RoleEnergyMismatch",
                    f"{job.name}: ControlOnly jobs must have zero perturbed wall-clock, b and c",
                )
        if job.role is MemberRole.PERTURBED_ONLY:
            if job.wallclock_ctrl_s != 0 or job.energy.per_control_kj != 0 or job.energy.per_any_kj != 0:
                report.error(
                    "RoleEnergyMismatch",
                    f"{job.name}: PerturbedOnly jobs must have zero control wall-clock, a and c",
                )
        if job.queue not in cl.queues:
            report.error("UnknownQueue", f"{job.name}: queue {job.queue!r} not in cluster.queues")
        if job.contaminated:
            report.warn("Contaminated", f"{job.name}: shared-queue measurement, energy may be overestimated")
        if job.low_confidence:
            report.warn("LowConfidence", f"{job.name}: duration below counter resolution")

    for e in model.edges:
        for endpoint in (e.from_job, e.to_job):
            if endpoint not in seen:
                report.error(
                    "UnknownJobInEdge",
                    f"edge {e.from_job} -> {e.to_job} references unknown job {endpoint!r}",
                )

    cycle = find_job_cycle([j.name for j in model.jobs], model.edges)
    if cycle:
        report.error("CycleDetected", "dependency cycle: " + " -> ".join(cycle))
    return report


# ---------------------------------------------------------------------------
# Instance expansion


class Instance(NamedTuple):
    """One concrete (job, member, repetition) run; a tuple, cheap to build."""

    id: str
    job: str
    member: int
    wave: int
    slot: int
    duration_s: float
    category: JobCategory
    queue: str
    cores: int


class InstanceGraph:
    """Expanded per-member instances plus dependency edges (a DAG for valid models).

    Instances are numbered by the rank of their id string, so rank order is id
    order: `ranked[r]` is the instance of rank r, `rank_ids[r]` its id, and
    `pred_ranks[r]` and `succ_ranks[r]` the sorted ranks of its predecessors
    and successors. `succ_ranks`, and the read-only id-keyed views
    `instances`, `preds` and `succs`, are built on first access.
    """

    def __init__(self, instances: Iterable[Instance], edges: Iterable[tuple[str, str]]):
        ranked = sorted({i.id: i for i in instances}.values(), key=lambda i: i.id)
        rank = {i.id: r for r, i in enumerate(ranked)}
        preds: list[list[int]] = [[] for _ in ranked]
        edges = list(edges)  # read twice when an endpoint is unknown
        try:
            for src, dst in edges:
                preds[rank[dst]].append(rank[src])
        except KeyError:
            src, dst = min(e for e in edges if e[0] not in rank or e[1] not in rank)
            raise SchemaError(f"edge ({src}, {dst}) references unknown instance") from None
        self._link(ranked, [tuple(sorted(p)) for p in preds])

    def _link(self, ranked: list[Instance], pred_ranks: list[tuple[int, ...]]) -> None:
        self.ranked, self.rank_ids, self.pred_ranks = ranked, [i.id for i in ranked], pred_ranks

    def __len__(self) -> int:
        return len(self.ranked)

    def ids(self) -> list[str]:
        return list(self.rank_ids)

    def _named(self, rank_lists: list[tuple[int, ...]]) -> Mapping[str, tuple[str, ...]]:
        ids = self.rank_ids
        return MappingProxyType({i: tuple([ids[r] for r in rs]) for i, rs in zip(ids, rank_lists)})

    @cached_property
    def succ_ranks(self) -> list[tuple[int, ...]]:
        succs: list[list[int]] = [[] for _ in self.ranked]
        for r, ps in enumerate(self.pred_ranks):
            for p in ps:
                succs[p].append(r)  # r ascends, so each list comes out sorted
        return [tuple(s) for s in succs]

    @cached_property
    def instances(self) -> Mapping[str, Instance]:
        return MappingProxyType(dict(zip(self.rank_ids, self.ranked)))

    @cached_property
    def preds(self) -> Mapping[str, tuple[str, ...]]:
        return self._named(self.pred_ranks)

    @cached_property
    def succs(self) -> Mapping[str, tuple[str, ...]]:
        return self._named(self.succ_ranks)


def expand_instances(model: SuiteModel) -> InstanceGraph:
    """Expand jobs to per-(member, repetition) instances and replicate edges.

    Each instance lasts wallclock/waves for its member's role; waves chain
    sequentially per member. SameMember edges are replicated for members where
    both jobs exist; ControlToAll / ControlToPerturbed edges connect control
    source instances to the respective target members' instances.
    """
    cfg, n = model.ensemble, model.ensemble.n_control
    instances: list[Instance] = []
    block: dict[str, tuple[int, int]] = {}  # job -> (base, size): member m's slot k is instances[base + m * size + k]
    waves_of: dict[str, list[slice]] = {}  # job -> the slots of each wave
    jobs_by_name = {j.name: j for j in model.jobs}  # a name given twice (an invalid model) keeps its last job

    for job in jobs_by_name.values():
        name, rep = job.name, job.repetition
        waves = waves_of[name] = []
        wave_of: list[int] = []  # by slot
        for wave, width in enumerate(rep.wave_widths):
            waves.append(slice(len(wave_of), len(wave_of) + width))
            wave_of += [wave] * width
        ctrl_s = job.wallclock_for(MemberPath.CONTROL) / rep.waves
        pert_s = job.wallclock_for(MemberPath.PERTURBED) / rep.waves
        placed = (job.category, job.queue, job.cores_per_member)
        members = cfg.members_for(job.role)
        block[name] = (len(instances) - members.start * len(wave_of), len(wave_of))
        instances += [
            Instance(f"{name}:m{m:03d}:i{slot:03d}", name, m, wave, slot, ctrl_s if m < n else pert_s, *placed)
            for m in members
            for slot, wave in enumerate(wave_of)
        ]

    ids = [i.id for i in instances]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = [0] * len(order)
    for r, k in enumerate(order):
        rank[k] = r
    preds: list[list[int]] = [[] for _ in order]  # by rank, possibly repeated

    def ranks(job: str, member: int) -> list[int]:
        base, size = block[job]
        return rank[base + member * size : base + (member + 1) * size]

    def link(sources: list[int], targets: list[int]) -> None:
        for r in targets:
            preds[r] += sources

    for job in jobs_by_name.values():
        waves = waves_of[job.name]
        for m in cfg.members_for(job.role) if len(waves) > 1 else ():
            slots = ranks(job.name, m)
            for a, b in zip(waves, waves[1:]):  # every instance of a wave runs after all of the previous one
                link(slots[a], slots[b])

    for edge in model.edges:
        src_members = cfg.members_for(jobs_by_name[edge.from_job].role)
        dst_members = cfg.members_for(jobs_by_name[edge.to_job].role)
        if edge.scope is EdgeScope.SAME_MEMBER:
            pairs = [(m, m) for m in src_members if m in dst_members]
        else:
            if edge.scope is EdgeScope.CONTROL_TO_PERTURBED:
                dst_members = [m for m in dst_members if m >= n]
            pairs = [(ms, md) for ms in src_members if ms < n for md in dst_members]
        for ms, md in pairs:
            link(ranks(edge.from_job, ms), ranks(edge.to_job, md))

    graph = InstanceGraph.__new__(InstanceGraph)
    graph._link(
        [instances[k] for k in order],
        [tuple(sorted(set(p))) if len(p) > 1 else tuple(p) for p in preds],
    )
    return graph


# ---------------------------------------------------------------------------
# Suite model file format (JSON)


_energy_from_dict = record(EnergyTerm, **{f.name: number for f in fields(EnergyTerm)})


def _repetition_from_dict(raw, at) -> RepetitionSpec:
    o = obj(raw, at)
    if "wave_widths" in o:
        instances, waves = req(o, "instances", at, integer), req(o, "waves", at, integer)
    else:
        instances, waves = opt(o, "instances", at, integer, 1), opt(o, "waves", at, integer, 1)
    if not 1 <= waves <= max(instances, 1):
        # a wave runs at least one instance; this also keeps from_counts from
        # building one width per wave of an unbounded count (instances below
        # 1 are left to validate_suite)
        fail((at, "waves"), f"1 to instances ({instances})", waves)
    if "wave_widths" not in o:
        return RepetitionSpec.from_counts(instances, waves)
    return RepetitionSpec(instances, waves, req(o, "wave_widths", at, tuple_of(integer)))


def job_from_dict(raw, at="") -> JobProfile:
    o = obj(raw, at)
    return JobProfile(
        name=req(o, "name", at, string),
        category=req(o, "category", at, enum_of(JobCategory)),
        role=opt(o, "role", at, enum_of(MemberRole), MemberRole.ALL),
        queue=req(o, "queue", at, string),
        cores_per_member=opt(o, "cores_per_member", at, integer, 1),
        wallclock_ctrl_s=opt(o, "wallclock_ctrl_s", at, number, 0.0),
        wallclock_pert_s=opt(o, "wallclock_pert_s", at, number, 0.0),
        energy=opt(o, "energy", at, _energy_from_dict, EnergyTerm()),
        repetition=opt(o, "repetition", at, _repetition_from_dict, RepetitionSpec()),
        contaminated=opt(o, "contaminated", at, boolean, False),
        low_confidence=opt(o, "low_confidence", at, boolean, False),
    )


edge_from_dict = record(DependencyEdge, from_job=string, to_job=string, scope=enum_of(EdgeScope))
cluster_from_dict = record(
    ClusterSpec,
    node_count=nullable(integer),
    cores_per_node=integer,
    queues=dict_of(string, record(QueueSpec, exclusive_nodes=boolean, max_concurrent_jobs=nullable(integer))),
    idle_power_kw=number,
)
suite_model_from_dict = record(
    SuiteModel,
    ensemble=record(EnsembleConfig, n_control=integer, n_total=integer),
    cluster=cluster_from_dict,
    jobs=tuple_of(job_from_dict),
    edges=tuple_of(edge_from_dict),
)


def load_suite_model(path: str | Path) -> SuiteModel:
    return load_json(path, suite_model_from_dict)


def save_suite_model(model: SuiteModel, path: str | Path) -> None:
    Path(path).write_text(dump_json(asdict(model)), encoding="utf-8")


def _edge_list(raw, at) -> tuple[DependencyEdge, ...]:
    edges = tuple_of(edge_from_dict)
    return opt(raw, "edges", at, edges, ()) if isinstance(raw, dict) else edges(raw, at)


def load_edges(path: str | Path) -> tuple[DependencyEdge, ...]:
    """Edge list file: {"edges": [...]} or a bare JSON list."""
    return load_json(path, _edge_list)
