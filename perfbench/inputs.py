"""Seeded input generator for the benchmark.

Every input the program reads during a run is written here, into the run's
own scratch directory: the suite model, the edge list, the unified profiles
(`.kjp`) and, for `execute-stubs`, the schedule (`.kjs`). The seed jitters
each job's wall-clock columns and each profile phase's magnitude by a factor
in [0.9, 1.1]. The jitter is multiplicative, so zero stays zero and the role
rules of the model still hold. The seed also fixes the order in which the
what-if divisors are asked.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import replace
from pathlib import Path

JITTER = 0.10
FORECAST_DIVISORS = (1, 2, 4)


def _rng(seed: int, stream: str) -> random.Random:
    # string seeds hash with SHA-512, so the streams do not depend on PYTHONHASHSEED
    return random.Random(f"{seed}:{stream}")


def _factor(rng: random.Random) -> float:
    return 1.0 + rng.uniform(-JITTER, JITTER)


def divisor_order(seed: int) -> list[int]:
    return _rng(seed, "divisors").sample(list(FORECAST_DIVISORS), len(FORECAST_DIVISORS))


def write_model(
    data_dir: Path, out: Path, seed: int, n_control: int, n_total: int, node_count: int | None
) -> Path:
    """Bundled suite model with jittered wall-clocks at (n_control, n_total) on node_count nodes."""
    raw = json.loads((data_dir / "rmi_eps.json").read_text(encoding="utf-8"))
    rng = _rng(seed, "model")
    for job in raw["jobs"]:
        for key in ("wallclock_ctrl_s", "wallclock_pert_s"):
            job[key] = job[key] * _factor(rng)
    raw["ensemble"] = {"n_control": n_control, "n_total": n_total}
    raw["cluster"]["node_count"] = node_count
    path = out / "model.json"
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return path


def write_edges(data_dir: Path, out: Path) -> Path:
    path = out / "edges.json"
    shutil.copyfile(data_dir / "rmi_eps_edges.json", path)
    return path


def write_profiles(data_dir: Path, out: Path, seed: int) -> Path:
    """Parse and merge the bundled profiler samples, jitter their phases, save `.kjp` files.

    Provenance keeps only file names, so the files do not depend on where the
    checkout lives.
    """
    from epsim.profiles import (
        IoMode,
        merge_profiles,
        parse_io_profile,
        parse_mpi_profile,
        save_profile,
    )

    by_job: dict[str, list] = {}
    for src in sorted((data_dir / "profiles").iterdir()):
        if src.suffix == ".mpiprof":
            rec = parse_mpi_profile(src)
        else:
            # same auto-detection as `epsim ingest`
            mode = IoMode.PARALLEL if "ranks=" in src.read_text(encoding="utf-8") else IoMode.SINGLE
            rec = parse_io_profile(src, mode)
        by_job.setdefault(rec.job, []).append(rec)

    rng = _rng(seed, "profiles")
    kjp_dir = out / "kjp"
    kjp_dir.mkdir(parents=True, exist_ok=True)
    for job in sorted(by_job):
        profile = merge_profiles(by_job[job])
        phases = []
        for p in profile.phases:
            f = _factor(rng)
            phases.append(replace(p, duration_s=p.duration_s * f, bytes=int(round(p.bytes * f))))
        profile = replace(
            profile,
            phases=tuple(phases),
            provenance=tuple(Path(s).name for s in profile.provenance),
        )
        save_profile(profile, kjp_dir / f"{job}.kjp")
    return kjp_dir
