"""Domain model for an ensemble forecasting suite.

Types for jobs, categories, member roles, dependencies and the cluster, plus
validation of a suite model and its expansion into a concrete per-member
instance graph. The one topological order and cycle finder that job edges,
instance graphs and schedule documents share live here too.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sized
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple, TypeVar

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
from .errors import CycleDetected, ModelInvalid, SchemaError, UnknownJob

K = TypeVar("K")  # a graph's node key, such as an instance id or a job id


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
    def single() -> "RepetitionSpec":
        return RepetitionSpec(1, 1, (1,))

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
    repetition: RepetitionSpec = field(default_factory=RepetitionSpec.single)
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

    def multiplier(self, role: MemberRole) -> int:
        return len(self.members_for(role))

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

    def job(self, name: str) -> JobProfile:
        for j in self.jobs:
            if j.name == name:
                return j
        raise UnknownJob(name)

    def job_names(self) -> list[str]:
        return [j.name for j in self.jobs]

    def with_ensemble(self, cfg: EnsembleConfig) -> "SuiteModel":
        return replace(self, ensemble=cfg)


def category_of(job_name: str, model: SuiteModel) -> JobCategory:
    """Category of a cataloged job; raises UnknownJob, never defaults."""
    return model.job(job_name).category


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


def find_cycle(succs: Mapping[K, Iterable[K]]) -> list[K] | None:
    """First cycle a depth-first walk finds, closed (first == last), or None.

    Roots and successors are visited in the order `succs` gives them; every
    successor must itself be a key of `succs`.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(succs, WHITE)
    for root in succs:
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


def topological_order(preds: Mapping[K, Sized], succs: Mapping[K, Iterable[K]]) -> list[K]:
    """Kahn order, smallest key first; raises CycleDetected naming a closed cycle.

    `preds` and `succs` describe the same edges (an edge listed twice counts
    twice in both); in-degrees are `len(preds[k])`.
    """
    indeg = {k: len(p) for k, p in preds.items()}
    heap = [k for k, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: list[K] = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for nxt in succs[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, nxt)
    if len(order) != len(indeg):
        raise CycleDetected(find_cycle(succs))
    return order


def find_job_cycle(names: list[str], edges: tuple[DependencyEdge, ...]) -> list[str] | None:
    """First job-name cycle in the edge set, or None; ignores unknown endpoints."""
    succs: dict[str, list[str]] = {n: [] for n in names}
    for e in edges:
        if e.from_job in succs and e.to_job in succs:
            succs[e.from_job].append(e.to_job)
    return find_cycle(succs)


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

    cycle = find_job_cycle(model.job_names(), model.edges)
    if cycle:
        report.error("CycleDetected", "dependency cycle: " + " -> ".join(cycle))
    return report


def ensure_valid(model: SuiteModel) -> SuiteModel:
    report = validate_suite(model)
    if not report.ok:
        raise ModelInvalid(report)
    return model


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
    is_control: bool


class InstanceGraph:
    """Expanded per-member instances plus dependency edges (a DAG for valid models)."""

    def __init__(self, instances: list[Instance], edges: set[tuple[str, str]]):
        self.instances: dict[str, Instance] = {i.id: i for i in sorted(instances, key=lambda x: x.id)}
        preds: dict[str, list[str]] = {i: [] for i in self.instances}
        succs: dict[str, list[str]] = {i: [] for i in self.instances}
        try:
            for src, dst in edges:
                preds[dst].append(src)
                succs[src].append(dst)
        except KeyError:
            src, dst = min(e for e in edges if e[0] not in preds or e[1] not in preds)
            raise SchemaError(f"edge ({src}, {dst}) references unknown instance") from None
        # each list sorted on its own: the order sorting every edge would give
        self.preds = {k: tuple(sorted(v)) for k, v in preds.items()}
        self.succs = {k: tuple(sorted(v)) for k, v in succs.items()}

    def __len__(self) -> int:
        return len(self.instances)

    def ids(self) -> list[str]:
        return list(self.instances)


def _instance_id(job: str, member: int, slot: int) -> str:
    return f"{job}:m{member:03d}:i{slot:03d}"


def expand_instances(model: SuiteModel) -> InstanceGraph:
    """Expand jobs to per-(member, repetition) instances and replicate edges.

    Each instance lasts wallclock/waves for its member's role; waves chain
    sequentially per member. SameMember edges are replicated for members where
    both jobs exist; ControlToAll / ControlToPerturbed edges connect control
    source instances to the respective target members' instances.
    """
    cfg = model.ensemble
    instances: list[Instance] = []
    # (job, member) -> list of instance ids, wave-major
    by_job_member: dict[tuple[str, int], list[str]] = {}
    edges: set[tuple[str, str]] = set()

    for job in model.jobs:
        rep = job.repetition
        for member in cfg.members_for(job.role):
            is_control = member < cfg.n_control
            path = MemberPath.CONTROL if is_control else MemberPath.PERTURBED
            duration = job.wallclock_for(path) / rep.waves
            ids: list[str] = []
            prev = 0  # where the previous wave starts in ids
            for wave, width in enumerate(rep.wave_widths):
                start = len(ids)
                for slot in range(start, start + width):
                    iid = _instance_id(job.name, member, slot)
                    instances.append(
                        Instance(
                            id=iid,
                            job=job.name,
                            member=member,
                            wave=wave,
                            slot=slot,
                            duration_s=duration,
                            category=job.category,
                            queue=job.queue,
                            cores=job.cores_per_member,
                            is_control=is_control,
                        )
                    )
                    ids.append(iid)
                # every instance of this wave runs after all of the previous one
                edges.update((a, b) for a in ids[prev:start] for b in ids[start:])
                prev = start
            by_job_member[(job.name, member)] = ids

    jobs_by_name = {j.name: j for j in model.jobs}
    for edge in model.edges:
        src_job = jobs_by_name[edge.from_job]
        dst_job = jobs_by_name[edge.to_job]
        if edge.scope is EdgeScope.SAME_MEMBER:
            pairs = [
                (m, m)
                for m in cfg.members_for(src_job.role)
                if (edge.to_job, m) in by_job_member
            ]
        else:
            src_members = [m for m in cfg.members_for(src_job.role) if m < cfg.n_control]
            if edge.scope is EdgeScope.CONTROL_TO_ALL:
                dst_members = cfg.members_for(dst_job.role)
            else:  # CONTROL_TO_PERTURBED
                dst_members = [m for m in cfg.members_for(dst_job.role) if m >= cfg.n_control]
            pairs = [(ms, md) for ms in src_members for md in dst_members]
        for ms, md in pairs:
            for a in by_job_member.get((edge.from_job, ms), ()):
                for b in by_job_member.get((edge.to_job, md), ()):
                    edges.add((a, b))

    return InstanceGraph(instances, edges)


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
        repetition=opt(o, "repetition", at, _repetition_from_dict, RepetitionSpec.single()),
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


def suite_model_to_dict(model: SuiteModel) -> dict:
    return asdict(model)


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
