import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracle_data as oracle

from epsim.datafiles import measurements_path, profiles_dir
from epsim.errors import (
    DuplicateSource,
    FormatError,
    JobNameMismatch,
    MissingKey,
    ModeMismatch,
    NegativeValue,
    SchemaError,
)
from epsim.profiles import (
    IoMode,
    Phase,
    PhaseKind,
    ProfileSource,
    RawProfileRecord,
    UnifiedJobProfile,
    ingest_measurements,
    load_profile,
    merge_profiles,
    parse_io_profile,
    parse_mpi_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MPI_SAMPLE = """\
mpiprof v1
# profiler self-description
job=TestJob
wallclock_s=10
mpi_time_s=2
ranks=4
"""

IO_SAMPLE = """\
ioprof v1
job=TestJob
wallclock_s=5
read_bytes=100
write_bytes=200
file_opens=3
"""


class TestParseMpiProfile:
    def test_echoes_metrics(self, tmp_path):
        rec = parse_mpi_profile(write(tmp_path, "a.mpiprof", MPI_SAMPLE))
        assert rec.job == "TestJob"
        assert rec.source is ProfileSource.MPI_PROFILE
        assert rec.metrics["wallclock_s"] == 10
        assert rec.metrics["mpi_time_s"] == 2
        assert rec.metrics["ranks"] == 4

    def test_unknown_keys_preserved(self, tmp_path):
        rec = parse_mpi_profile(write(tmp_path, "a.mpiprof", MPI_SAMPLE + "gflops=12.5\n"))
        assert rec.metrics["gflops"] == 12.5

    def test_missing_ranks(self, tmp_path):
        text = MPI_SAMPLE.replace("ranks=4\n", "")
        with pytest.raises(MissingKey) as err:
            parse_mpi_profile(write(tmp_path, "a.mpiprof", text))
        assert err.value.key == "ranks"

    def test_bundled_forecast_profile_has_612_ranks(self):
        rec = parse_mpi_profile(profiles_dir() / "forecast.mpiprof")
        assert rec.job == "Forecast"
        assert rec.metrics["ranks"] == 612

    def test_garbage_line_positioned(self, tmp_path):
        text = "mpiprof v1\njob=X\nwallclock_s=1\nnot a pair\n"
        with pytest.raises(FormatError) as err:
            parse_mpi_profile(write(tmp_path, "a.mpiprof", text))
        assert err.value.line == 4

    def test_wrong_marker(self, tmp_path):
        with pytest.raises(FormatError):
            parse_mpi_profile(write(tmp_path, "a.mpiprof", IO_SAMPLE))


class TestParseIoProfile:
    def test_single_mode_forces_ranks(self, tmp_path):
        io = IO_SAMPLE.replace("write_bytes=200", "write_bytes=1048576")
        rec = parse_io_profile(write(tmp_path, "a.ioprof", io), IoMode.SINGLE)
        assert rec.source is ProfileSource.IO_PROFILE_SINGLE
        assert rec.metrics["ranks"] == 1
        assert rec.metrics["write_bytes"] == 1048576

    def test_parallel_file_as_single_is_mode_mismatch(self, tmp_path):
        path = write(tmp_path, "a.ioprof", IO_SAMPLE + "ranks=36\n")
        with pytest.raises(ModeMismatch):
            parse_io_profile(path, IoMode.SINGLE)

    def test_parallel_mode_requires_ranks(self, tmp_path):
        with pytest.raises(MissingKey) as err:
            parse_io_profile(write(tmp_path, "a.ioprof", IO_SAMPLE), IoMode.PARALLEL)
        assert err.value.key == "ranks"

    def test_empty_file_fails_at_line_one(self, tmp_path):
        with pytest.raises(FormatError) as err:
            parse_io_profile(write(tmp_path, "a.ioprof", ""), IoMode.SINGLE)
        assert err.value.line == 1


class TestMergeProfiles:
    def test_mpi_plus_io(self, tmp_path):
        mpi = parse_mpi_profile(write(tmp_path, "a.mpiprof", MPI_SAMPLE))
        io = parse_io_profile(write(tmp_path, "a.ioprof", IO_SAMPLE), IoMode.SINGLE)
        profile = merge_profiles([mpi, io])
        kinds = [p.kind for p in profile.phases]
        assert kinds == [
            PhaseKind.IO_READ,
            PhaseKind.COMPUTE,
            PhaseKind.MPI_EXCHANGE,
            PhaseKind.IO_WRITE,
        ]
        assert profile.phases[0].bytes == 100
        assert profile.phases[1].duration_s == pytest.approx(8.0)
        assert profile.phases[3].bytes == 200

    def test_job_name_mismatch(self):
        a = RawProfileRecord("A", ProfileSource.IO_PROFILE_SINGLE, {"wallclock_s": 1.0})
        b = RawProfileRecord("B", ProfileSource.IO_PROFILE_SINGLE, {"wallclock_s": 1.0})
        with pytest.raises(JobNameMismatch):
            merge_profiles([a, b])

    def test_io_only_records(self, tmp_path):
        io = parse_io_profile(write(tmp_path, "a.ioprof", IO_SAMPLE), IoMode.SINGLE)
        profile = merge_profiles([io])
        kinds = [p.kind for p in profile.phases]
        assert PhaseKind.MPI_EXCHANGE not in kinds
        compute = next(p for p in profile.phases if p.kind is PhaseKind.COMPUTE)
        assert compute.duration_s == pytest.approx(5.0)

    def test_duplicate_mpi_source(self, tmp_path):
        mpi = parse_mpi_profile(write(tmp_path, "a.mpiprof", MPI_SAMPLE))
        with pytest.raises(DuplicateSource):
            merge_profiles([mpi, mpi])

    def test_negative_compute_clamped(self):
        rec = RawProfileRecord(
            "X", ProfileSource.MPI_PROFILE, {"wallclock_s": 1.0, "mpi_time_s": 2.0, "ranks": 4.0}
        )
        profile = merge_profiles([rec])
        compute = next(p for p in profile.phases if p.kind is PhaseKind.COMPUTE)
        assert compute.duration_s == 0.0

    def test_order_insensitive(self, tmp_path):
        mpi = parse_mpi_profile(write(tmp_path, "a.mpiprof", MPI_SAMPLE))
        io1 = parse_io_profile(write(tmp_path, "a.ioprof", IO_SAMPLE), IoMode.SINGLE)
        io2 = parse_io_profile(
            write(tmp_path, "b.ioprof", IO_SAMPLE.replace("read_bytes=100", "read_bytes=50")),
            IoMode.SINGLE,
        )
        assert merge_profiles([mpi, io1, io2]) == merge_profiles([io2, mpi, io1])


class TestIngestMeasurements:
    def test_bundled_table(self):
        model = ingest_measurements(measurements_path())
        assert len(model.jobs) == oracle.JOB_COUNT
        forecast = {j.name: j for j in model.jobs}["Forecast"]
        assert forecast.cores_per_member == 612
        assert forecast.wallclock_ctrl_s == 1290.0

    def test_first_guess_low_confidence(self):
        model = ingest_measurements(measurements_path())
        assert {j.name: j for j in model.jobs}["FirstGuess"].low_confidence
        flagged = [j.name for j in model.jobs if j.low_confidence]
        assert flagged == ["FirstGuess"]

    def test_threshold_configurable(self):
        model = ingest_measurements(measurements_path(), low_confidence_threshold_s=3.0)
        assert {j.name: j for j in model.jobs}["ExtractBD"].low_confidence

    def test_contaminated_follows_csv_flag(self):
        model = ingest_measurements(measurements_path())
        contaminated = {j.name for j in model.jobs if j.contaminated}
        assert contaminated == {"MARS_prefetch_bd", "ExtractBD", "FirstGuess", "Archive_odb", "PertAna"}

    def test_negative_energy_rejected(self, tmp_path):
        text = measurements_path().read_text().replace("20.7", "-1")
        with pytest.raises(NegativeValue):
            ingest_measurements(write(tmp_path, "t.csv", text))

    def test_more_waves_than_instances_rejected(self, tmp_path):
        text = measurements_path().read_text().replace("All,13,4,false", "All,13,2000000,false")
        with pytest.raises(SchemaError, match=r"t\.csv:4: column 'repeat_waves' is 2000000, more than repeat_instances \(13\)$"):
            ingest_measurements(write(tmp_path, "t.csv", text))

    @pytest.mark.parametrize("cell", ["0", "0.5"])
    def test_waves_below_one_rejected(self, tmp_path, cell):
        text = measurements_path().read_text().replace("All,13,4,false", f"All,13,{cell},false")
        with pytest.raises(SchemaError, match=r"t\.csv:4: column 'repeat_waves' is 0, less than 1$"):
            ingest_measurements(write(tmp_path, "t.csv", text))

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        text = measurements_path().read_text().replace("All,13,4,false", f"All,{cell},4,false")
        with pytest.raises(SchemaError, match=f"t\\.csv:4: column 'repeat_instances' is not a finite number: '{cell}'$"):
            ingest_measurements(write(tmp_path, "t.csv", text))

    def test_wrong_header_rejected(self, tmp_path):
        text = measurements_path().read_text().replace("job,stage", "stage,job")
        with pytest.raises(SchemaError):
            ingest_measurements(write(tmp_path, "t.csv", text))

    def test_gl_bd_repetition_reconstructed(self):
        model = ingest_measurements(measurements_path())
        rep = {j.name: j for j in model.jobs}["gl_bd"].repetition
        assert (rep.instances, rep.waves, rep.wave_widths) == (13, 4, (1, 4, 4, 4))

class TestKjpRoundTrip:
    def test_dict_round_trip(self):
        profile = UnifiedJobProfile(
            job="X",
            phases=(
                Phase(PhaseKind.IO_READ, bytes=10),
                Phase(PhaseKind.COMPUTE, duration_s=1.5),
                Phase(PhaseKind.MPI_EXCHANGE, bytes=99, ranks=8),
                Phase(PhaseKind.IO_WRITE, bytes=20),
            ),
            provenance=("a.mpiprof", "a.ioprof"),
        )
        assert profile_from_dict(profile_to_dict(profile)) == profile

    def test_file_round_trip(self, tmp_path):
        profile = UnifiedJobProfile("X", (Phase(PhaseKind.COMPUTE, duration_s=2.0),))
        path = tmp_path / "x.kjp"
        save_profile(profile, path)
        assert load_profile(path) == profile

    def test_empty_phase_list_rejected(self):
        with pytest.raises(SchemaError):
            profile_from_dict({"job": "X", "phases": []})


@settings(max_examples=60)
@given(
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    st.floats(0.0, 1e4, allow_nan=False),
    st.floats(0.0, 1e4, allow_nan=False),
)
def test_merge_totals_commute(read_a, read_b, wall_a, wall_b):
    recs = [
        RawProfileRecord(
            "J", ProfileSource.IO_PROFILE_SINGLE,
            {"wallclock_s": max(wall_a, 0.1), "read_bytes": float(read_a), "write_bytes": 0.0},
        ),
        RawProfileRecord(
            "J", ProfileSource.IO_PROFILE_PARALLEL,
            {"wallclock_s": max(wall_b, 0.1), "read_bytes": float(read_b), "write_bytes": 0.0,
             "ranks": 4.0},
        ),
    ]
    assert merge_profiles(recs) == merge_profiles(list(reversed(recs)))
