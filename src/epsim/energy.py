"""Energy and wall-clock accounting over a suite model.

Energy is schedule-invariant here: runtimes overlap across members, but every
member's consumption adds up, so all aggregation happens on the affine terms
directly rather than on a simulated timeline.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

from .errors import DegenerateTotal
from .model import (
    ClusterSpec,
    EnergyTerm,
    EnsembleConfig,
    JobCategory,
    MemberPath,
    SuiteModel,
)

log = logging.getLogger(__name__)

SCATTER_CSV_HEADER = "job,role,wallclock_s,energy_kj,power_kw"


def job_energy(term: EnergyTerm, cfg: EnsembleConfig) -> float:
    """a·n + b·(N−n) + c·N + d in kJ."""
    n, N = cfg.n_control, cfg.n_total
    return (
        term.per_control_kj * n
        + term.per_perturbed_kj * (N - n)
        + term.per_any_kj * N
        + term.fixed_kj
    )


def affine_total(model: SuiteModel) -> tuple[float, float, float]:
    """Total energy as (A, B, D) with E = A·n + B·N + D.

    Uses b·(N−n) = −b·n + b·N, so A = Σ(a−b), B = Σ(b+c), D = Σd.
    """
    A = sum(j.energy.per_control_kj - j.energy.per_perturbed_kj for j in model.jobs)
    B = sum(j.energy.per_perturbed_kj + j.energy.per_any_kj for j in model.jobs)
    D = sum(j.energy.fixed_kj for j in model.jobs)
    return A, B, D


def suite_total(model: SuiteModel, cfg: EnsembleConfig | None = None) -> float:
    cfg = cfg or model.ensemble
    return sum(job_energy(j.energy, cfg) for j in model.jobs)


@dataclass
class EnergyBreakdown:
    per_job_kj: dict[str, float]
    per_category_kj: dict[JobCategory, float]
    total_kj: float
    fractions: dict[JobCategory, float]
    forecast_excluded: bool


def category_breakdown(
    model: SuiteModel,
    cfg: EnsembleConfig | None = None,
    exclude_forecast: bool = False,
    include_contaminated: bool = True,
) -> EnergyBreakdown:
    """Per-job and per-category energies at (n, N), with category fractions.

    With exclude_forecast, fractions cover only non-Forecast categories and
    are taken over the non-Forecast total. Contaminated (shared-queue) jobs
    are included by default and can be dropped for sensitivity analysis.
    """
    cfg = cfg or model.ensemble
    per_job: dict[str, float] = {}
    per_cat: dict[JobCategory, float] = {}
    for job in model.jobs:
        if job.contaminated and not include_contaminated:
            continue
        e = job_energy(job.energy, cfg)
        per_job[job.name] = e
        per_cat[job.category] = per_cat.get(job.category, 0.0) + e
    total = sum(per_job.values())
    if exclude_forecast:
        denom = total - per_cat.get(JobCategory.FORECAST, 0.0)
        members = {c: e for c, e in per_cat.items() if c is not JobCategory.FORECAST}
    else:
        denom = total
        members = dict(per_cat)
    if denom == 0:
        raise DegenerateTotal("fraction denominator is zero")
    fractions = {c: e / denom for c, e in members.items()}
    return EnergyBreakdown(
        per_job_kj=per_job,
        per_category_kj=per_cat,
        total_kj=total,
        fractions=fractions,
        forecast_excluded=exclude_forecast,
    )


@dataclass
class WallclockBreakdown:
    path: MemberPath
    per_category_s: dict[JobCategory, float]
    total_s: float
    fractions: dict[JobCategory, float]


def wallclock_breakdown(model: SuiteModel, path: MemberPath) -> WallclockBreakdown:
    """Serial per-member wall-clock by category for one member type.

    Sums the measurement-table column of every job the member runs; repeated
    jobs contribute their full table value (it already spans all waves).
    """
    per_cat: dict[JobCategory, float] = {}
    for job in model.jobs:
        if not job.runs_on(path):
            continue
        per_cat[job.category] = per_cat.get(job.category, 0.0) + job.wallclock_for(path)
    total = sum(per_cat.values())
    fractions = {c: s / total for c, s in per_cat.items()} if total > 0 else {}
    return WallclockBreakdown(path=path, per_category_s=per_cat, total_s=total, fractions=fractions)


def member_energy_breakdown(
    model: SuiteModel, path: MemberPath
) -> tuple[dict[JobCategory, float], dict[JobCategory, float]]:
    """Per-category energy of a single member of the given type.

    A control member is charged a+c per job, a perturbed one b+c; the fixed
    per-run term d belongs to no member and is left out. Returns
    (per_category_kj, fractions).
    """
    per_cat: dict[JobCategory, float] = {}
    for job in model.jobs:
        if not job.runs_on(path):
            continue
        t = job.energy
        share = t.per_any_kj + (
            t.per_control_kj if path is MemberPath.CONTROL else t.per_perturbed_kj
        )
        per_cat[job.category] = per_cat.get(job.category, 0.0) + share
    total = sum(per_cat.values())
    if total == 0:
        raise DegenerateTotal(f"no member energy on the {path.value} path")
    return per_cat, {c: e / total for c, e in per_cat.items()}


# ---------------------------------------------------------------------------
# Power scatter (energy vs wall-clock per single instance)


@dataclass(frozen=True)
class ScatterPoint:
    job: str
    role: MemberPath
    wallclock_s: float
    energy_kj: float

    @property
    def power_kw(self) -> float:
        return self.energy_kj / self.wallclock_s


def power_scatter(model: SuiteModel, cfg: EnsembleConfig | None = None) -> list[ScatterPoint]:
    """One point per (job, member type): per-instance wall-clock and energy.

    Per-instance energy is the member-type coefficient split over the job's
    repetition instances, plus d amortized over every instance of the job.
    Jobs with zero wall-clock for a type are skipped with a warning.
    """
    cfg = cfg or model.ensemble
    points: list[ScatterPoint] = []
    for job in model.jobs:
        rep = job.repetition
        total_instances = len(cfg.members_for(job.role)) * rep.instances
        for path in (MemberPath.CONTROL, MemberPath.PERTURBED):
            if not job.runs_on(path):
                continue
            wallclock = job.wallclock_for(path) / rep.waves
            if wallclock <= 0:
                log.warning("power_scatter: skipping %s (%s): zero wall-clock", job.name, path.value)
                continue
            t = job.energy
            share = t.per_any_kj + (
                t.per_control_kj if path is MemberPath.CONTROL else t.per_perturbed_kj
            )
            energy = share / rep.instances
            if total_instances > 0:
                energy += t.fixed_kj / total_instances
            points.append(ScatterPoint(job.name, path, wallclock, energy))
    return points


ISO_POWER_LEVELS_KW = (0.01, 0.1, 1.0, 10.0)
LINE_SAMPLE_TIMES_S = (1.0, 10.0, 60.0, 600.0, 3600.0)


def iso_power_samples(power_kw: float, durations_s: tuple[float, ...] = LINE_SAMPLE_TIMES_S):
    """Constant-power line samples: energy = power × duration (kW·s = kJ)."""
    return [(t, power_kw * t) for t in durations_s]


def idle_line(cluster: ClusterSpec, durations_s: tuple[float, ...] = LINE_SAMPLE_TIMES_S):
    """Idle-node reference line, one sample per duration."""
    return iso_power_samples(cluster.idle_power_kw, durations_s)


def scatter_csv(model: SuiteModel, cfg: EnsembleConfig | None = None) -> str:
    """Scatter points plus iso-power and idle-line samples, fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCATTER_CSV_HEADER.split(","))
    for p in power_scatter(model, cfg):
        writer.writerow([p.job, p.role.value, fmt(p.wallclock_s), fmt(p.energy_kj), fmt(p.power_kw)])
    for level in ISO_POWER_LEVELS_KW:
        for t, e in iso_power_samples(level):
            writer.writerow([f"_iso_{fmt(level)}kw", "reference", fmt(t), fmt(e), fmt(level)])
    for t, e in idle_line(model.cluster):
        writer.writerow(["_idle_node", "reference", fmt(t), fmt(e), fmt(model.cluster.idle_power_kw)])
    return buf.getvalue()


def breakdown_csv(model: SuiteModel, breakdown: EnergyBreakdown) -> str:
    """Per-job rows with category, energy and measurement flags."""
    jobs = {j.name: j for j in model.jobs}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["job", "category", "energy_kj", "contaminated", "low_confidence"])
    for name, e in breakdown.per_job_kj.items():
        j = jobs[name]
        writer.writerow(
            [name, j.category.value, fmt(e), str(j.contaminated).lower(), str(j.low_confidence).lower()]
        )
    return buf.getvalue()


def fmt(x: float) -> str:
    """Shortest round-trip decimal; integers without the trailing .0."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)
