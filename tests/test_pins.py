"""Byte-level pins of the deterministic document writers.

Each digest is the SHA-256 of an output of the bundled dataset. A digest may
change only together with a CHANGES.md entry that says why the output moved.
"""

import hashlib
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from epsim.cli import main
from epsim.codec import dump_json
from epsim.datafiles import edges_path, load_bundled_model, profiles_dir, suite_model_path
from epsim.executor import generate_schedule, save_schedule
from epsim.model import EnsembleConfig, JobCategory, expand_instances, load_edges
from epsim.profiles import IoMode, merge_profiles, parse_io_profile, parse_mpi_profile, save_profile
from epsim.simulate import events_csv, simulate, summary_json
from epsim.whatif import Scenario

SIM_PINS = {  # (n_total, node_count, max_concurrent_jobs of both queues) -> (events_csv, summary_json)
    (22, None, None): (
        "271d081b170adbd7111139c06d65c1000a26019af25f54080e90125d49651c65",
        "4e6e54a40130ad575e3cd996cdbee2d4c0eb2dbff18a4c5acd9683a31d9d1de2",
    ),
    (22, 64, None): (
        "004bba906a1d56f79216900d91c1cfc8e2248f76f05cd0294d04e85a8559aadd",
        "ebfd50bc60d9c9b89d62fd07bcafd41e6da8ba192c0afd679513d9fd721d3cc6",
    ),
    (100, None, None): (
        "f87d9c28c708a654b6280b5fb0fe1d4cccb4106c4f1ac49cc0226986ecb4daf0",
        "b95f5ba4a64e205e6bc2602ccd9a3887d42f218ec8d382efa3ed9da6a55ab99c",
    ),
    (100, 64, None): (
        "af50a6c3cc8240f3087d1da35486496ff02e8d7c51174c46fc317eb4ae2cd293",
        "09fb58f3bf769f1b853622106c2bad4614bdea1f11393e9518a0d54970e96416",
    ),
    # saturated clusters: classes miss at the head of a dispatch pass, and at
    # 17 nodes (the widest instance's need) both queue limits bind as well
    (100, 24, None): (
        "0d532d86ce974fbdf397f0bc5a4ad72742b1c5ad154a768c295ec2601a035888",
        "97c259801a107d313ba39beee934c713a092d658ad0e7b1234aa02d6444dfb02",
    ),
    (100, 17, 3): (
        "427470b5ecc142ea330a4ccb7c3ca253e4893d7eb12d078a1b11d9e3af58486f",
        "b20983791cb6a52bb84c9c7a9b17c29b81345ae05e815da1835ae5626d1462c2",
    ),
    # past member 999 ids sort as strings (X:m1000 before X:m100), not as
    # (job, member, slot) tuples
    (2000, 64, None): (
        "c075ddff6e87b0285fc0582d80ab9d7d41da82236a9adf0ca0bdbd95156bceb2",
        "29c6030c5f25504c09d2bd43bba762a401b5d619b01bac0c67d14df08e3451b6",
    ),
}
REPORT_JSON_PIN = "5aa61e580b6723352510b8f7bd4bc61b56c5f189fee3f3f16ba4bf9ebd835cea"
KJS_PIN = "dec91604c115b7fdc2da0018a31958c8711b5b198b79188d62db99919e61514d"
KJS_SCALED_PIN = "41b1226b5610be6dbc902bfd106e308b3925ccbacb7be8168edb0f5acf1c2219"
KJS_WIDE_PIN = "697afd0ad9dd5a81a89b76cbf1d4f49a6d0a19eb3fe8852078d51b2987014481"
KJP_PIN = "be20ee45720ddd2b4bdd884623a0407d2ae85e7bdfa98d9fee7038cd9f1d2d91"
SCENARIO_PIN = "4ac5fcd330b818856e6549913f680575525391523523ed47ed7c1e54596c40d5"
WHATIF_PINS = {  # `epsim whatif` arguments -> stdout
    ("--zero-category", "LBCs"): "55f60e0ff817cd6dae92e0b2729377f3b7bf96b47beebb3069070fabb3b1ab32",
    ("--zero-category", "DataAssimilation"): "c08dfb823791da065203b8e666efc556734d561b21aafb2e5e2462286559be93",
    ("--zero-category", "Forecast"): "d4677d4b036d17c88b0fc0e9adc4036309ea7656269d6f416929c831343e34b8",
    ("--zero-category", "PostProcessing"): "8c408114cf311d9b1a7e224309dbbdabb199c0a759cfc91e716e51f22f1584bd",
    ("--zero-category", "Other"): "34d855b013f1af21c8b1f1057ad280f2a3ad109de7303abd8a5534c6f7af85bc",
    ("--speedup", "Forecast=2", "--n-prime", "2", "--N-prime", "42"): (
        "2b964d4c1bbf67d356d9ce97f495bc92fab1ea7a4b0077466b44bccf163da68e"
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _simulated(n_total, node_count, queue_limit):
    model = load_bundled_model()
    queues = {qid: replace(q, max_concurrent_jobs=queue_limit) for qid, q in model.cluster.queues.items()}
    model = replace(
        model.with_ensemble(EnsembleConfig(model.ensemble.n_control, n_total)),
        cluster=replace(model.cluster, node_count=node_count, queues=queues),
    )
    result = simulate(expand_instances(model), model.cluster)
    return _sha256(events_csv(result)), _sha256(summary_json(result, model.cluster))


def _pin_id(key):
    n_total, node_count, queue_limit = key
    return f"{n_total}-{node_count}" + ("" if queue_limit is None else f"-limit{queue_limit}")


@pytest.mark.parametrize("key", list(SIM_PINS), ids=_pin_id)
def test_simulation_outputs(key):
    assert _simulated(*key) == SIM_PINS[key]


def test_report_json(capsys):
    assert main(["report", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out) == REPORT_JSON_PIN


@pytest.mark.parametrize("args", list(WHATIF_PINS), ids=" ".join)
def test_whatif(args, capsys):
    assert main(["whatif", *args]) == 0
    assert _sha256(capsys.readouterr().out) == WHATIF_PINS[args]


def bundled_profiles():
    # what `epsim ingest` merges, with provenance cut to file names so the
    # digests do not depend on where the checkout lives
    by_job: dict[str, list] = {}
    for src in sorted(profiles_dir().iterdir()):
        if src.suffix == ".mpiprof":
            rec = parse_mpi_profile(src)
        else:
            mode = IoMode.PARALLEL if "ranks=" in src.read_text(encoding="utf-8") else IoMode.SINGLE
            rec = parse_io_profile(src, mode)
        by_job.setdefault(rec.job, []).append(rec)
    profiles = []
    for job in sorted(by_job):
        profile = merge_profiles(by_job[job])
        profiles.append(replace(profile, provenance=tuple(Path(s).name for s in profile.provenance)))
    return profiles


def test_model_rebuild_matches_committed_file(tmp_path):
    # the committed model is an independent oracle for `epsim model`'s writer
    out = tmp_path / "m.json"
    assert main(["model", "-o", str(out)]) == 0
    assert out.read_bytes() == suite_model_path().read_bytes()


def test_bundled_profile(tmp_path):
    (forecast,) = [p for p in bundled_profiles() if p.job == "Forecast"]
    target = tmp_path / "Forecast.kjp"
    save_profile(forecast, target)
    assert _sha256(target.read_text(encoding="utf-8")) == KJP_PIN


def test_scenario_document():
    scenario = Scenario(
        n_prime=3,
        N_prime=42,
        speedup={JobCategory.FORECAST: 2.0, JobCategory.DATA_ASSIMILATION: 1.5},
        energy_factor={JobCategory.FORECAST: 0.5},
        io_scale=0.25,
    )
    assert _sha256(dump_json(asdict(scenario))) == SCENARIO_PIN


def test_bundled_schedule(tmp_path):
    # what `epsim ingest` + `epsim schedule` write
    profiles = bundled_profiles()
    doc = generate_schedule(profiles, list(load_edges(edges_path())), EnsembleConfig(1, 1))
    assert len(doc.jobs) == 16
    target = tmp_path / "suite.kjs"
    save_schedule(doc, target)
    assert _sha256(target.read_text(encoding="utf-8")) == KJS_PIN


def test_bundled_schedule_scaled(tmp_path):
    # roles and repetition from the bundled catalog, at N=22 with a scenario
    # that scales every compute and I/O phase
    catalog = {j.name: j for j in load_bundled_model().jobs}
    doc = generate_schedule(
        bundled_profiles(),
        list(load_edges(edges_path())),
        EnsembleConfig(2, 22),
        Scenario(io_scale=0.1, compute_scale=2.0),
        catalog=catalog,
    )
    assert len(doc.jobs) == 554
    target = tmp_path / "suite.kjs"
    save_schedule(doc, target)
    assert _sha256(target.read_text(encoding="utf-8")) == KJS_SCALED_PIN


def test_bundled_schedule_past_member_999(tmp_path):
    # job ids number the instance ids in string order, so Forecast:m1000
    # comes before Forecast:m100
    catalog = {j.name: j for j in load_bundled_model().jobs}
    doc = generate_schedule(
        bundled_profiles(), list(load_edges(edges_path())), EnsembleConfig(2, 1001), catalog=catalog
    )
    assert len(doc.jobs) == 25029
    target = tmp_path / "suite.kjs"
    save_schedule(doc, target)
    assert _sha256(target.read_text(encoding="utf-8")) == KJS_WIDE_PIN
