"""Profiler-output parsing and unified job profiles.

Two textual profile formats stand in for binary MPI/IO profiler logs:

    mpiprof v1              ioprof v1
    # comment               # comment
    job=Forecast            job=Archive_odb
    wallclock_s=1290        wallclock_s=121
    mpi_time_s=312          read_bytes=1048576
    ranks=612               write_bytes=4096
                            file_opens=12

One ``key=value`` pair per line, ``#`` comments and blank lines allowed, and
the format marker must be the first significant line. The measurement-table
CSV ingested here uses the fixed column schema in MEASUREMENT_COLUMNS.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .codec import dump_json, enum_of, integer, load_json, number, record, string, tuple_of
from .errors import (
    DuplicateSource,
    FormatError,
    JobNameMismatch,
    MissingKey,
    ModeMismatch,
    NegativeValue,
    SchemaError,
)
from .model import (
    ClusterSpec,
    EnergyTerm,
    EnsembleConfig,
    JobCategory,
    JobProfile,
    MemberRole,
    QueueSpec,
    RepetitionSpec,
    SuiteModel,
)

log = logging.getLogger(__name__)

MEASUREMENT_COLUMNS = [
    "job",
    "stage",
    "queue",
    "cores_per_member",
    "wallclock_ctrl_s",
    "wallclock_pert_s",
    "a_per_control_kj",
    "b_per_perturbed_kj",
    "c_per_any_kj",
    "d_fixed_kj",
    "role",
    "repeat_instances",
    "repeat_waves",
    "contaminated",
]

DEFAULT_LOW_CONFIDENCE_THRESHOLD_S = 1.0  # ~10 Hz counters: sub-second jobs are noise


class ProfileSource(str, Enum):
    MPI_PROFILE = "MpiProfile"
    IO_PROFILE_PARALLEL = "IoProfileParallel"
    IO_PROFILE_SINGLE = "IoProfileSingle"


class IoMode(str, Enum):
    PARALLEL = "Parallel"
    SINGLE = "Single"


@dataclass(frozen=True)
class RawProfileRecord:
    job: str
    source: ProfileSource
    metrics: dict[str, float]
    source_file: str | None = None


class PhaseKind(str, Enum):
    IO_READ = "io_read"
    COMPUTE = "compute"
    MPI_EXCHANGE = "mpi_exchange"
    IO_WRITE = "io_write"


@dataclass(frozen=True)
class Phase:
    kind: PhaseKind
    duration_s: float = 0.0
    bytes: int = 0
    ranks: int = 1


@dataclass(frozen=True)
class UnifiedJobProfile:
    job: str
    phases: tuple[Phase, ...]
    provenance: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# key=value parsers


def _parse_profile(path: str | Path, marker: str, required: tuple[str, ...]) -> tuple[str, dict[str, float]]:
    """The job name and numeric metrics of a key=value profile.

    Checks, in this order: the format marker and line syntax, the `job` key,
    that every other value is a number, `wallclock_s` and the `required`
    keys, and `wallclock_s > 0`.
    """
    text = Path(path).read_text(encoding="utf-8")
    pairs: dict[str, str] = {}
    saw_marker = False
    lineno = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not saw_marker:
            if stripped != marker:
                raise FormatError(f"expected format marker {marker!r}", path=path, line=lineno)
            saw_marker = True
            continue
        if "=" not in stripped:
            raise FormatError(f"expected key=value, got {stripped!r}", path=path, line=lineno)
        key, _, value = stripped.partition("=")
        pairs[key.strip()] = value.strip()
    if not saw_marker:
        raise FormatError(f"empty input, expected format marker {marker!r}", path=path, line=max(lineno, 1))
    job = pairs.pop("job", None)
    if job is None:
        raise MissingKey("job", path=path)
    metrics = {}
    for key, value in pairs.items():
        try:
            metrics[key] = float(value)
        except ValueError:
            raise FormatError(f"value for {key!r} is not a number: {value!r}", path=path) from None
    for key in ("wallclock_s", *required):
        if key not in metrics:
            raise MissingKey(key, path=path)
    if metrics["wallclock_s"] <= 0:
        raise FormatError("wallclock_s must be > 0", path=path)
    return job, metrics


def parse_mpi_profile(path: str | Path) -> RawProfileRecord:
    """Parse an ``mpiprof v1`` file; wallclock_s, mpi_time_s and ranks are mandatory."""
    job, metrics = _parse_profile(path, "mpiprof v1", ("mpi_time_s", "ranks"))
    if metrics["ranks"] < 1:
        raise FormatError("ranks must be >= 1", path=path)
    return RawProfileRecord(job=job, source=ProfileSource.MPI_PROFILE, metrics=metrics, source_file=str(path))


def parse_io_profile(path: str | Path, mode: IoMode) -> RawProfileRecord:
    """Parse an ``ioprof v1`` file; Single mode forces ranks=1."""
    job, metrics = _parse_profile(path, "ioprof v1", ("read_bytes", "write_bytes", "file_opens"))
    for key in ("read_bytes", "write_bytes", "file_opens"):
        if metrics[key] < 0:
            raise FormatError(f"{key} must be >= 0", path=path)
    if mode is IoMode.SINGLE:
        if metrics.get("ranks", 1.0) != 1.0:
            raise ModeMismatch(
                f"{path}: parallel profile (ranks={int(metrics['ranks'])}) parsed in Single mode"
            )
        metrics["ranks"] = 1.0
        source = ProfileSource.IO_PROFILE_SINGLE
    else:
        if "ranks" not in metrics:
            raise MissingKey("ranks", path=path)
        if metrics["ranks"] < 1:
            raise FormatError("ranks must be >= 1", path=path)
        source = ProfileSource.IO_PROFILE_PARALLEL
    return RawProfileRecord(job=job, source=source, metrics=metrics, source_file=str(path))


def merge_profiles(records: list[RawProfileRecord]) -> UnifiedJobProfile:
    """Combine one job's records into phases [IoRead, Compute, MpiExchange, IoWrite].

    Compute lasts wallclock − mpi_time from the (unique) MPI record, clamped
    at zero, or the longest IO wallclock when no MPI record exists. Byte
    totals sum across IO records; merging is insensitive to input order.
    """
    if not records:
        raise JobNameMismatch("cannot merge an empty record list")
    names = {r.job for r in records}
    if len(names) > 1:
        raise JobNameMismatch(f"records from different jobs: {sorted(names)}")
    job = records[0].job

    mpi_records = [r for r in records if r.source is ProfileSource.MPI_PROFILE]
    if len(mpi_records) > 1:
        raise DuplicateSource(f"{job}: more than one MPI profile record")
    io_records = [r for r in records if r.source is not ProfileSource.MPI_PROFILE]

    read_bytes = int(sum(r.metrics.get("read_bytes", 0.0) for r in io_records))
    write_bytes = int(sum(r.metrics.get("write_bytes", 0.0) for r in io_records))

    if mpi_records:
        m = mpi_records[0].metrics
        compute = m["wallclock_s"] - m["mpi_time_s"]
        if compute < 0:
            log.warning(
                "%s: mpi_time_s %.3f exceeds wallclock_s %.3f, clamping compute to 0",
                job, m["mpi_time_s"], m["wallclock_s"],
            )
            compute = 0.0
    else:
        compute = max((r.metrics["wallclock_s"] for r in io_records), default=0.0)

    phases: list[Phase] = []
    if read_bytes > 0:
        phases.append(Phase(PhaseKind.IO_READ, bytes=read_bytes))
    phases.append(Phase(PhaseKind.COMPUTE, duration_s=compute))
    if mpi_records:
        m = mpi_records[0].metrics
        phases.append(
            Phase(
                PhaseKind.MPI_EXCHANGE,
                bytes=int(m.get("mpi_bytes", 0.0)),
                ranks=int(m["ranks"]),
            )
        )
    if write_bytes > 0:
        phases.append(Phase(PhaseKind.IO_WRITE, bytes=write_bytes))

    provenance = tuple(sorted(r.source_file for r in records if r.source_file))
    return UnifiedJobProfile(job=job, phases=tuple(phases), provenance=provenance)


# ---------------------------------------------------------------------------
# Unified profile files (.kjp)


def phase_to_dict(p: Phase) -> dict:
    entry: dict = {"kind": p.kind.value}
    if p.kind is PhaseKind.COMPUTE:
        entry["duration_s"] = p.duration_s
    elif p.kind is PhaseKind.MPI_EXCHANGE:
        entry["bytes"] = p.bytes
        entry["ranks"] = p.ranks
    else:
        entry["bytes"] = p.bytes
    return entry


def profile_to_dict(profile: UnifiedJobProfile) -> dict:
    return {
        "job": profile.job,
        "phases": [phase_to_dict(p) for p in profile.phases],
        "provenance": list(profile.provenance),
    }


phase_from_dict = record(Phase, kind=enum_of(PhaseKind), duration_s=number, bytes=integer, ranks=integer)
_profile_from_dict = record(
    UnifiedJobProfile, job=string, phases=tuple_of(phase_from_dict), provenance=tuple_of(string)
)


def profile_from_dict(raw, at="") -> UnifiedJobProfile:
    profile = _profile_from_dict(raw, at)
    if not profile.phases:
        raise SchemaError(f"{profile.job}: phase list may not be empty")
    return profile


def save_profile(profile: UnifiedJobProfile, path: str | Path) -> None:
    Path(path).write_text(dump_json(profile_to_dict(profile)), encoding="utf-8")


def load_profile(path: str | Path) -> UnifiedJobProfile:
    return load_json(path, profile_from_dict)


# ---------------------------------------------------------------------------
# Measurement table (CSV) ingestion


def _default_cluster(queues_seen: list[str]) -> ClusterSpec:
    # "ns" is the shared serial queue; anything else gets whole nodes
    queues = {q: QueueSpec(exclusive_nodes=(q != "ns")) for q in queues_seen}
    return ClusterSpec(node_count=None, cores_per_node=36, queues=queues, idle_power_kw=0.3)


def ingest_measurements(
    path: str | Path,
    low_confidence_threshold_s: float = DEFAULT_LOW_CONFIDENCE_THRESHOLD_S,
    ensemble: EnsembleConfig | None = None,
    cluster: ClusterSpec | None = None,
) -> SuiteModel:
    """Measurement CSV → suite model with jobs only (no edges).

    Rows whose applicable wall-clock is positive but under the counter
    resolution threshold are flagged low_confidence. The default cluster is
    unlimited nodes with every queue seen in the file registered.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty measurement file") from None
        if header != MEASUREMENT_COLUMNS:
            raise SchemaError(
                f"{path}: bad header; expected {','.join(MEASUREMENT_COLUMNS)}"
            )
        rows = list(reader)

    jobs: list[JobProfile] = []
    queues_seen: list[str] = []
    for lineno, cells in enumerate(rows, start=2):
        if not cells or cells == [""]:
            continue
        if len(cells) != len(MEASUREMENT_COLUMNS):
            raise SchemaError(f"{path}:{lineno}: expected {len(MEASUREMENT_COLUMNS)} columns, got {len(cells)}")
        rec = dict(zip(MEASUREMENT_COLUMNS, cells))
        ctx = f"{path}:{lineno}"

        def number(column: str, default: float | None = None) -> float:
            raw = rec[column].strip()
            if raw == "":
                if default is None:
                    raise SchemaError(f"{ctx}: column {column!r} may not be empty")
                return default
            try:
                value = float(raw)
            except ValueError:
                raise SchemaError(f"{ctx}: column {column!r} is not a number: {raw!r}") from None
            if not math.isfinite(value):  # int() of it would raise, and NaN passes every comparison
                raise SchemaError(f"{ctx}: column {column!r} is not a finite number: {raw!r}")
            if value < 0:
                raise NegativeValue(f"{ctx}: column {column!r} is negative: {raw}")
            return value

        category = enum_of(JobCategory)(rec["stage"], f"{ctx}: column 'stage'")
        role = enum_of(MemberRole)(rec["role"], f"{ctx}: column 'role'")
        contaminated_raw = rec["contaminated"].strip().lower()
        if contaminated_raw not in ("true", "false"):
            raise SchemaError(f"{ctx}: contaminated must be true or false")

        wc_ctrl = number("wallclock_ctrl_s", default=0.0)
        wc_pert = number("wallclock_pert_s", default=0.0)
        applicable = []
        if role in (MemberRole.ALL, MemberRole.CONTROL_ONLY):
            applicable.append(wc_ctrl)
        if role in (MemberRole.ALL, MemberRole.PERTURBED_ONLY):
            applicable.append(wc_pert)
        low_confidence = any(0 < w < low_confidence_threshold_s for w in applicable)

        instances = int(number("repeat_instances", default=1.0))
        waves = int(number("repeat_waves", default=1.0))
        if waves < 1:
            raise SchemaError(f"{ctx}: column 'repeat_waves' is {waves}, less than 1")
        if waves > max(instances, 1):  # as in a model file: a wave runs at least one instance
            raise SchemaError(f"{ctx}: column 'repeat_waves' is {waves}, more than repeat_instances ({instances})")

        queue = rec["queue"].strip()
        if queue not in queues_seen:
            queues_seen.append(queue)
        jobs.append(
            JobProfile(
                name=rec["job"].strip(),
                category=category,
                role=role,
                queue=queue,
                cores_per_member=int(number("cores_per_member")),
                wallclock_ctrl_s=wc_ctrl,
                wallclock_pert_s=wc_pert,
                energy=EnergyTerm(
                    per_control_kj=number("a_per_control_kj", default=0.0),
                    per_perturbed_kj=number("b_per_perturbed_kj", default=0.0),
                    per_any_kj=number("c_per_any_kj", default=0.0),
                    fixed_kj=number("d_fixed_kj", default=0.0),
                ),
                repetition=RepetitionSpec.from_counts(instances, waves),
                contaminated=contaminated_raw == "true",
                low_confidence=low_confidence,
            )
        )

    return SuiteModel(
        ensemble=ensemble or EnsembleConfig(2, 22),
        cluster=cluster or _default_cluster(queues_seen),
        jobs=tuple(jobs),
        edges=(),
    )
