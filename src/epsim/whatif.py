"""Scenario transforms and closed-form speedup/savings bounds.

Scenarios rescale the ensemble, divide category wall-clocks and multiply
category energy terms; speedups and energy factors are independent knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .codec import dict_of, enum_of, integer, load_json, nullable, number, record
from .energy import job_energy, suite_total, wallclock_breakdown
from .errors import DegeneratePath, InvalidScenario
from .model import EnsembleConfig, JobCategory, MemberPath, SuiteModel


@dataclass(frozen=True)
class Scenario:
    """A what-if transform; the default instance is the identity."""

    n_prime: int | None = None
    N_prime: int | None = None
    speedup: dict[JobCategory, float] = field(default_factory=dict)
    energy_factor: dict[JobCategory, float] = field(default_factory=dict)
    io_scale: float = 1.0
    compute_scale: float = 1.0

    def check(self) -> None:
        # written as `not (finite and x >= low)`, since NaN fails every comparison
        for cat, s in self.speedup.items():
            if not (math.isfinite(s) and s >= 1):
                raise InvalidScenario(f"speedup divisor for {cat.value} must be finite and >= 1, got {s}")
        for cat, f in self.energy_factor.items():
            if not (math.isfinite(f) and f >= 0):
                raise InvalidScenario(f"energy factor for {cat.value} must be finite and >= 0, got {f}")
        if not all(math.isfinite(x) and x >= 0 for x in (self.io_scale, self.compute_scale)):
            raise InvalidScenario(
                f"io_scale and compute_scale must be finite and >= 0, got ({self.io_scale}, {self.compute_scale})"
            )
        if (self.n_prime is None) != (self.N_prime is None):
            raise InvalidScenario("n_prime and N_prime must be given together")
        if self.n_prime is not None and not (1 <= self.n_prime <= self.N_prime):
            raise InvalidScenario(
                f"need 1 <= n_prime <= N_prime, got ({self.n_prime}, {self.N_prime})"
            )


def apply_scenario(model: SuiteModel, scenario: Scenario) -> SuiteModel:
    """New model with rescaled wall-clocks, energies and ensemble; input untouched."""
    scenario.check()
    jobs = []
    for job in model.jobs:
        divisor = scenario.speedup.get(job.category, 1.0)
        factor = scenario.energy_factor.get(job.category, 1.0)
        jobs.append(
            replace(
                job,
                wallclock_ctrl_s=job.wallclock_ctrl_s / divisor,
                wallclock_pert_s=job.wallclock_pert_s / divisor,
                energy=job.energy.scaled(factor),
            )
        )
    ensemble = model.ensemble
    if scenario.n_prime is not None:
        ensemble = EnsembleConfig(scenario.n_prime, scenario.N_prime)
    return replace(model, jobs=tuple(jobs), ensemble=ensemble)


def max_speedup(model: SuiteModel, category: JobCategory, path: MemberPath) -> float:
    """Limit of T / (T − T_category) on the selected serial member path.

    Returns 1.0 when the category is absent from the path and infinity when it
    is the whole path; raises DegeneratePath when the path itself is empty.
    """
    wc = wallclock_breakdown(model, path)
    total, cat_part = wc.total_s, wc.per_category_s.get(category, 0.0)
    if total == 0:
        raise DegeneratePath(f"the {path.value} member path has zero wall-clock")
    if cat_part == total:
        return math.inf
    return total / (total - cat_part)


def energy_savings(
    model: SuiteModel,
    cfg: EnsembleConfig,
    category: JobCategory,
    factor: float,
) -> tuple[float, float]:
    """(kJ saved, fraction of the suite total) for scaling one category's energy."""
    if not 0 <= factor <= 1:
        raise InvalidScenario(f"savings factor must be in [0, 1], got {factor}")
    cat_energy = sum(
        job_energy(j.energy, cfg) for j in model.jobs if j.category is category
    )
    total = suite_total(model, cfg)
    saved = (1.0 - factor) * cat_energy
    return saved, (saved / total if total else 0.0)


_factors = dict_of(enum_of(JobCategory), number)
_scenario_from_dict = record(
    Scenario,
    n_prime=nullable(integer),
    N_prime=nullable(integer),
    speedup=_factors,
    energy_factor=_factors,
    io_scale=number,
    compute_scale=number,
)


def scenario_from_dict(raw, at="") -> Scenario:
    scenario = _scenario_from_dict(raw, at)
    scenario.check()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    return load_json(path, scenario_from_dict)
