import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from epsim.cli import main
from epsim.datafiles import edges_path, measurements_path, profiles_dir, suite_model_path
from epsim.model import load_suite_model

GOLDEN_DIR = Path(__file__).parent / "golden"
HELP_COMMANDS = ["main", "ingest", "model", "report", "simulate", "whatif", "schedule", "execute"]


def run_cli(*argv, check=False, timeout=None):
    env = dict(os.environ, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "epsim.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_matches_golden(command):
    argv = ["--help"] if command == "main" else [command, "--help"]
    proc = run_cli(*argv)
    assert proc.returncode == 0
    golden = (GOLDEN_DIR / f"help_{command}.txt").read_text()
    assert proc.stdout == golden


class TestReport:
    def test_totals_in_table(self):
        proc = run_cli("report", check=True)
        assert "146534.7" in proc.stdout
        assert "146000" in proc.stdout
        assert "230.9*n + 6639.6*N + 1.7" in proc.stdout

    def test_json_format(self):
        proc = run_cli("report", "--format", "json", check=True)
        doc = json.loads(proc.stdout)
        assert doc["total_kj"] == pytest.approx(146534.7)
        assert doc["fractions"]["Forecast"] == pytest.approx(0.971, abs=0.001)

    def test_csv_format_lists_jobs(self):
        proc = run_cli("report", "--format", "csv", check=True)
        lines = proc.stdout.splitlines()
        assert lines[0] == "job,category,energy_kj,contaminated,low_confidence"
        assert len(lines) == 17

    def test_member_override(self):
        proc = run_cli("report", "-N", "42", check=True)
        assert "279326.7" in proc.stdout

    def test_scatter_export(self, tmp_path):
        target = tmp_path / "scatter.csv"
        run_cli("report", "--scatter", str(target), check=True)
        lines = target.read_text().splitlines()
        assert lines[0] == "job,role,wallclock_s,energy_kj,power_kw"
        forecast = [l for l in lines if l.startswith("Forecast,control")]
        assert len(forecast) == 1

    def test_byte_identical_reruns(self):
        first = run_cli("report", "--format", "json", check=True)
        second = run_cli("report", "--format", "json", check=True)
        assert first.stdout == second.stdout


class TestSimulate:
    def test_unlimited_nodes_makespan(self):
        proc = run_cli("simulate", "--nodes", "unlimited", check=True)
        assert "makespan: 3536.2 s" in proc.stdout

    def test_event_log_export_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--events", str(a), check=True)
        run_cli("simulate", "--events", str(b), check=True)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "instance_id,kind,time_s"

    def test_summary_json(self, tmp_path):
        target = tmp_path / "summary.json"
        run_cli("simulate", "--summary", str(target), check=True)
        doc = json.loads(target.read_text())
        assert doc["makespan_s"] == pytest.approx(3536.2)
        assert doc["critical_path_s"] == pytest.approx(3536.2)

    def test_queue_limit_below_one_is_invalid_cluster(self, tmp_path):
        raw = json.loads(suite_model_path().read_text())
        raw["cluster"]["queues"]["ns"]["max_concurrent_jobs"] = 0
        model = tmp_path / "model.json"
        model.write_text(json.dumps(raw))
        proc = run_cli("simulate", "--model", str(model))
        assert proc.returncode == 1
        assert "error [InvalidCluster]" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("nodes", ["unlimited", "64"])
    def test_nan_duration_is_an_input_error(self, tmp_path, nodes):
        # validate_suite lets a NaN wall-clock through, and simulate once looped
        # on it for ever: the timeout stops such a run
        raw = json.loads(suite_model_path().read_text())
        raw["jobs"][0]["wallclock_ctrl_s"] = float("nan")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(raw))  # json writes the literal NaN
        proc = run_cli("simulate", "--model", str(model), "--nodes", nodes, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: instance MARS_prefetch_bd:m000:i000 lasts nan s; a duration must be finite and >= 0\n"
        )

    def test_bad_nodes_value(self):
        proc = run_cli("simulate", "--nodes", "many")
        assert proc.returncode == 1

    def test_superscript_nodes_value_is_an_input_error(self, capsys):
        assert main(["simulate", "--nodes", "²"]) == 1
        assert capsys.readouterr().err == "error: --nodes takes a count or 'unlimited', got '²'\n"

    def test_zero_nodes_is_invalid_cluster(self, capsys):
        assert main(["simulate", "--nodes", "0"]) == 1
        err = capsys.readouterr().err
        assert "error [InvalidCluster] node_count must be >= 1 or null, got 0\n" in err
        assert "demands" not in err


class TestWhatif:
    def test_zero_category_control_path(self):
        proc = run_cli("whatif", "--zero-category", "Forecast", "--path", "control", check=True)
        assert "1.57" in proc.stdout

    def test_zero_category_both_paths(self):
        proc = run_cli("whatif", "--zero-category", "Forecast", check=True)
        assert "1.57" in proc.stdout
        assert "2.04" in proc.stdout

    def test_member_rescaling(self):
        proc = run_cli("whatif", "--n-prime", "2", "--N-prime", "42", check=True)
        assert "279326.7" in proc.stdout

    def test_scenario_file(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"speedup": {"Forecast": 2.0}}))
        proc = run_cli("whatif", "--scenario", str(scenario), check=True)
        assert "3536.2 s -> 2891.2 s" in proc.stdout

    def test_unknown_category_fails(self):
        proc = run_cli("whatif", "--zero-category", "Nonsense")
        assert proc.returncode == 1

    def test_nan_speedup_flag_is_an_input_error(self, capsys):
        assert main(["whatif", "--speedup", "Forecast=nan"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: speedup divisor for Forecast must be finite and >= 1, got nan\n"
        assert "nan s" not in captured.out

    @pytest.mark.parametrize("flag", ["--io-scale", "--compute-scale"])
    def test_scale_flags_are_not_options(self, flag):
        # apply_scenario reads neither scale; `schedule` is where they act
        assert run_cli("whatif", flag, "2").returncode == 2

    @pytest.mark.parametrize(
        "flags",
        [["--speedup", "Forecast=2"], ["--energy-factor", "Forecast=0.5"], ["--n-prime", "2", "--N-prime", "42"]],
        ids=["speedup", "energy-factor", "members"],
    )
    def test_scenario_file_does_not_combine_with_flags(self, tmp_path, capsys, flags):
        scenario = tmp_path / "s.json"
        scenario.write_text("{}")
        assert main(["whatif", "--scenario", str(scenario), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --scenario") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scenario", "s.json"],
            ["--n-prime", "1", "--N-prime", "5"],
            ["--speedup", "Forecast=2"],
            ["--energy-factor", "Forecast=0.5"],
            ["--path", "control", "--speedup", "Forecast=2", "--n-prime", "1", "--N-prime", "5"],
        ],
        ids=["scenario", "members", "speedup", "energy-factor", "all"],
    )
    def test_zero_category_does_not_combine_with_scenario_flags(self, capsys, flags):
        assert main(["whatif", "--zero-category", "Forecast", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --zero-category does not combine with --scenario")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("flags", [[], ["--n-prime", "2", "--N-prime", "42"]], ids=["alone", "members"])
    def test_path_needs_zero_category(self, capsys, flags):
        assert main(["whatif", "--path", "control", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --path applies only with --zero-category\n" and captured.out == ""

    def test_nan_in_scenario_file_is_an_input_error(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"speedup": {"Forecast": NaN}}')  # Python's json reads NaN
        assert main(["whatif", "--scenario", str(scenario)]) == 1
        assert "must be finite" in capsys.readouterr().err


class TestModelCommand:
    def test_rebuild_matches_bundled(self, tmp_path):
        out = tmp_path / "m.json"
        proc = run_cli(
            "model", "--measurements", str(measurements_path()),
            "--edges", str(edges_path()), "-o", str(out), check=True,
        )
        assert load_suite_model(out) == load_suite_model(suite_model_path())

    def test_cluster_override(self, tmp_path):
        cluster = tmp_path / "cluster.json"
        cluster.write_text(json.dumps({
            "node_count": 40,
            "cores_per_node": 36,
            "queues": {"np": {"exclusive_nodes": True, "max_concurrent_jobs": None},
                       "ns": {"exclusive_nodes": False, "max_concurrent_jobs": None}},
            "idle_power_kw": 0.25,
        }))
        out = tmp_path / "m.json"
        run_cli("model", "--cluster", str(cluster), "-o", str(out), check=True)
        model = load_suite_model(out)
        assert model.cluster.node_count == 40
        assert model.cluster.idle_power_kw == 0.25

    @pytest.mark.parametrize(
        "content",
        ["{not json", "[1, 2]", '{"queues": []}', '{"queues": {"np": 5}}'],
        ids=["malformed", "list", "queues-list", "queue-not-object"],
    )
    def test_bad_cluster_file_is_error_not_traceback(self, tmp_path, content):
        cluster = tmp_path / "cluster.json"
        cluster.write_text(content)
        proc = run_cli("model", "--cluster", str(cluster), "-o", str(tmp_path / "m.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_validation_failure_exits_1(self, tmp_path):
        bad_edges = tmp_path / "edges.json"
        bad_edges.write_text(json.dumps({"edges": [
            {"from_job": "Forecast", "to_job": "NoSuchJob", "scope": "SameMember"}
        ]}))
        out = tmp_path / "m.json"
        proc = run_cli("model", "--edges", str(bad_edges), "-o", str(out))
        assert proc.returncode == 1
        assert "UnknownJobInEdge" in proc.stderr


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag_is_2(self):
        assert run_cli("execute").returncode == 2

    def test_broken_model_is_1(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert run_cli("report", "--model", str(broken)).returncode == 1


class TestPipeline:
    def test_ingest_schedule_execute(self, tmp_path):
        kjp_dir = tmp_path / "kjp"
        raw = sorted(str(p) for p in profiles_dir().iterdir())
        run_cli("ingest", *raw, "-o", str(kjp_dir), check=True)
        assert len(list(kjp_dir.glob("*.kjp"))) == 16

        kjs = tmp_path / "suite.kjs"
        run_cli("schedule", "--profiles", str(kjp_dir), "-o", str(kjs), check=True)
        doc = json.loads(kjs.read_text())
        assert len(doc["jobs"]) == 16

        logfile = tmp_path / "run.json"
        proc = run_cli(
            "execute", "--schedule", str(kjs), "--inline", "--desk-scale", "1000000",
            "--parallelism", "4", "--workdir", str(tmp_path / "scratch"),
            "--log", str(logfile), check=True,
        )
        assert "16 ok, 0 failed, 0 skipped" in proc.stdout
        logged = json.loads(logfile.read_text())
        assert len(logged["jobs"]) == 16

    @pytest.mark.parametrize("n,N", [("5", "2"), ("0", "0")])
    @pytest.mark.parametrize("with_model", [False, True], ids=["profiles", "model"])
    def test_schedule_invalid_ensemble_writes_nothing(self, tmp_path, capsys, with_model, n, N):
        kjp_dir = tmp_path / "kjp"
        assert main(["ingest", *sorted(str(p) for p in profiles_dir().iterdir()), "-o", str(kjp_dir)]) == 0
        capsys.readouterr()
        kjs = tmp_path / "suite.kjs"
        model = ["--model", str(suite_model_path())] if with_model else []
        assert main(["schedule", "--profiles", str(kjp_dir), *model, "-n", n, "-N", N, "-o", str(kjs)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {suite_model_path()}: model failed validation" if with_model
            else f"error: need 1 <= n_control <= n_total, got ({n}, {N})"
        ]
        assert ("error [InvalidEnsemble]" in err) == with_model
        assert not kjs.exists()

    def test_execute_parallelism_below_one_is_an_input_error(self, tmp_path, capsys):
        kjs = tmp_path / "tiny.kjs"
        kjs.write_text(json.dumps(TINY_KJS))
        argv = ["execute", "--schedule", str(kjs), "--inline", "--parallelism", "0", "--workdir", str(tmp_path / "w")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: parallelism must be >= 1\n"

    def test_execute_failure_exit_code(self, tmp_path):
        kjs = tmp_path / "f.kjs"
        kjs.write_text(json.dumps({
            "created_from": [], "scale": {"io_scale": 1.0, "compute_scale": 1.0},
            "jobs": [
                {"job_id": 0, "name": "boom", "depends_on": [],
                 "phases": [{"kind": "compute", "duration_s": 0.0}],
                 "metadata": {"fail": True}},
                {"job_id": 1, "name": "after", "depends_on": [0],
                 "phases": [{"kind": "compute", "duration_s": 0.0}]},
            ],
        }))
        proc = run_cli("execute", "--schedule", str(kjs), "--inline",
                       "--workdir", str(tmp_path / "scratch"))
        assert proc.returncode == 1
        assert "1 ok" not in proc.stdout
        assert "skipped" in proc.stdout

    def test_execute_cycle_names_the_cycle(self, tmp_path):
        kjs = tmp_path / "cycle.kjs"
        kjs.write_text(json.dumps({"jobs": [
            {"job_id": 0, "name": "a", "depends_on": [1]},
            {"job_id": 1, "name": "b", "depends_on": [0]},
            {"job_id": 2, "name": "c", "depends_on": [1]},
        ]}))
        proc = run_cli("execute", "--schedule", str(kjs), "--inline",
                       "--workdir", str(tmp_path / "scratch"))
        assert proc.returncode == 1
        assert proc.stderr == "error: dependency cycle: 0 -> 1 -> 0\n"

    def test_interrupt_is_one_line_and_exit_130(self, tmp_path):
        kjs = tmp_path / "spin.kjs"
        kjs.write_text(json.dumps({"jobs": [
            {"job_id": 0, "name": "spin", "depends_on": [],
             "phases": [{"kind": "io_write", "bytes": 10}, {"kind": "compute", "duration_s": 30.0}]},
        ]}))
        workdir = tmp_path / "scratch"
        proc = subprocess.Popen(
            [sys.executable, "-m", "epsim.cli", "execute", "--schedule", str(kjs),
             "--desk-scale", "1", "--workdir", str(workdir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not (workdir / "j00000.out").exists():  # the job is spinning
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=10)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130
        assert stderr == "error: interrupted\n"


TINY_KJS = {
    "created_from": [],
    "scale": {"io_scale": 1.0, "compute_scale": 1.0},
    "jobs": [
        {"job_id": 0, "name": "a", "depends_on": [],
         "phases": [{"kind": "compute", "duration_s": 0.0}], "metadata": {}},
        {"job_id": 1, "name": "b", "depends_on": [0],
         "phases": [{"kind": "compute", "duration_s": 0.0}], "metadata": {}},
    ],
}

# (document, keys to the replaced value, new value, JSON path the error names)
MALFORMED = [
    ("model", ["ensemble", "n_control"], "two", "ensemble.n_control"),
    ("model", ["ensemble"], 3, "ensemble"),
    ("model", ["jobs", 0, "energy"], [1, 2], "jobs[0].energy"),
    ("model", ["jobs", 0, "repetition", "wave_widths"], 5, "jobs[0].repetition.wave_widths"),
    ("model", ["jobs", 0, "cores_per_member"], None, "jobs[0].cores_per_member"),
    ("model", ["jobs", 0, "repetition"], {"instances": 1, "waves": 2_000_000}, "jobs[0].repetition.waves"),
    ("model", ["jobs", 1, "repetition"], {"instances": 5, "waves": 0}, "jobs[1].repetition.waves"),
    ("model", ["jobs", 2, "repetition"], {"instances": 5, "waves": -3}, "jobs[2].repetition.waves"),
    ("model", ["jobs"], {"a": 1}, "jobs"),
    ("kjs", ["jobs", 0, "phases", 0, "duration_s"], "x", "jobs[0].phases[0].duration_s"),
    ("kjs", ["jobs", 1, "depends_on"], 5, "jobs[1].depends_on"),
    ("kjs", ["scale"], 3, "scale"),
    ("kjs", ["jobs"], [5], "jobs[0]"),
    ("kjs", ["jobs", 0, "metadata"], [1], "jobs[0].metadata"),
    ("kjs", ["jobs", 0, "phases"], [5], "jobs[0].phases[0]"),
    ("scenario", ["speedup"], [1], "speedup"),
    ("scenario", ["io_scale"], "big", "io_scale"),
]


@pytest.mark.parametrize("document,keys,value,json_path", MALFORMED, ids=[m[3] for m in MALFORMED])
def test_malformed_input_names_its_json_path(tmp_path, capsys, document, keys, value, json_path):
    doc = {
        "model": lambda: json.loads(suite_model_path().read_text()),
        "kjs": lambda: json.loads(json.dumps(TINY_KJS)),
        "scenario": lambda: {"speedup": {"Forecast": 2.0}, "io_scale": 1.0},
    }[document]()
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = {
        "model": ["report", "--model", str(path)],
        "kjs": ["execute", "--schedule", str(path), "--inline", "--workdir", str(tmp_path / "w")],
        "scenario": ["whatif", "--scenario", str(path)],
    }[document]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path}: {json_path}: expected " in err
