"""Acceptance gate: every release-blocking criterion, one test each.

Each test prints a PASS line once its assertions hold (visible with -v -s or
in captured output). All expected values live in oracle_data, derived from
the frozen measurement rows by plain summation.
"""

import random
import time
from dataclasses import asdict

import pytest

import oracle_data as oracle
from test_executor import FAST, check_log_invariants, profile, random_dag
from test_simulate import _demand_fits, oracle_makespan

from epsim.datafiles import profiles_dir
from epsim.energy import (
    affine_total,
    category_breakdown,
    member_energy_breakdown,
    power_scatter,
    suite_total,
    wallclock_breakdown,
)
from epsim.executor import execute, generate_schedule, load_schedule, save_schedule
from epsim.model import (
    ClusterSpec,
    DependencyEdge,
    EnsembleConfig,
    JobCategory,
    MemberPath,
    QueueSpec,
    expand_instances,
    load_suite_model,
    save_suite_model,
    suite_model_from_dict,
)
from epsim.profiles import (
    IoMode,
    merge_profiles,
    parse_io_profile,
    parse_mpi_profile,
    profile_from_dict,
    profile_to_dict,
)
from epsim.simulate import critical_path, simulate
from epsim.whatif import Scenario, apply_scenario, max_speedup


def ok(line):
    print(f"ACCEPTANCE PASS: {line}")


def test_affine_total_reproduction(bundled_model):
    t0 = time.perf_counter()
    A, B, D = affine_total(bundled_model)
    elapsed = time.perf_counter() - t0
    assert abs(A - 230.9) <= 0.1
    assert abs(B - 6639.6) <= 0.1
    assert abs(D - 1.7) <= 0.1
    assert elapsed < 1.0
    ok(f"affine total ({A:.2f}, {B:.2f}, {D:.2f}) within 0.1 of (230.9, 6639.6, 1.7), {elapsed * 1e3:.2f} ms")


def test_suite_total_at_2_22(bundled_model):
    computed = suite_total(bundled_model, EnsembleConfig(2, 22))
    assert abs(computed - 146534.7) / 146534.7 < 1e-6
    assert abs(computed - 146000.0) / 146000.0 < 0.005
    ok(f"suite total at (2,22) = {computed:.1f} kJ, consistent with ~146000")


def test_forecast_energy_dominance(bundled_model):
    bd = category_breakdown(bundled_model, EnsembleConfig(2, 22))
    frac = bd.fractions[JobCategory.FORECAST]
    assert 0.94 <= frac <= 0.99
    assert abs(frac - 0.971) <= 0.001
    _, ctrl = member_energy_breakdown(bundled_model, MemberPath.CONTROL)
    _, pert = member_energy_breakdown(bundled_model, MemberPath.PERTURBED)
    assert abs(ctrl[JobCategory.FORECAST] - 0.942) <= 0.001
    assert abs(pert[JobCategory.FORECAST] - 0.974) <= 0.001
    ok(
        f"forecast energy shares: suite {frac:.3f}, control member "
        f"{ctrl[JobCategory.FORECAST]:.3f}, perturbed member {pert[JobCategory.FORECAST]:.3f}"
    )


def test_wallclock_fractions(bundled_model):
    ctrl = wallclock_breakdown(bundled_model, MemberPath.CONTROL)
    pert = wallclock_breakdown(bundled_model, MemberPath.PERTURBED)
    assert abs(ctrl.fractions[JobCategory.FORECAST] - 0.365) <= 0.01
    assert abs(pert.fractions[JobCategory.FORECAST] - 0.511) <= 0.01
    ok(
        f"forecast wall-clock fractions: control {ctrl.fractions[JobCategory.FORECAST]:.3f}, "
        f"perturbed {pert.fractions[JobCategory.FORECAST]:.3f}"
    )


def test_speedup_bounds(bundled_model):
    ctrl = max_speedup(bundled_model, JobCategory.FORECAST, MemberPath.CONTROL)
    pert = max_speedup(bundled_model, JobCategory.FORECAST, MemberPath.PERTURBED)
    assert abs(ctrl - 1.57) <= 0.02
    assert abs(pert - 2.04) <= 0.02
    scaled = apply_scenario(bundled_model, Scenario(speedup={JobCategory.FORECAST: 1e6}))
    makespan = simulate(expand_instances(scaled), scaled.cluster).makespan_s
    limit = oracle.EXPECTED_CTRL_PATH_S - oracle.path_category_seconds("Forecast", "control")
    assert abs(makespan - limit) / limit < 1e-3
    ok(
        f"max speedups {ctrl:.2f} (control) / {pert:.2f} (perturbed); "
        f"limiting makespan {makespan:.1f} s vs {limit:.1f} s"
    )


def test_forecast_power_point(bundled_model):
    points = {(p.job, p.role): p for p in power_scatter(bundled_model, EnsembleConfig(2, 22))}
    power = points[("Forecast", MemberPath.CONTROL)].power_kw
    assert abs(power - 5.02) <= 0.05
    ok(f"forecast instance power {power:.3f} kW within 5.02 +- 0.05")


def test_member_rescaling(bundled_model):
    scaled = apply_scenario(bundled_model, Scenario(n_prime=2, N_prime=42))
    total = suite_total(scaled)
    assert abs(total - 279326.7) / 279326.7 < 1e-6
    small = category_breakdown(bundled_model, EnsembleConfig(2, 22), exclude_forecast=True)
    large = category_breakdown(bundled_model, EnsembleConfig(2, 42), exclude_forecast=True)
    da_small = small.fractions[JobCategory.DATA_ASSIMILATION]
    da_large = large.fractions[JobCategory.DATA_ASSIMILATION]
    assert da_large < da_small
    ok(
        f"total at (2,42) = {total:.1f} kJ; non-forecast DA fraction "
        f"{da_small:.3f} -> {da_large:.3f} (decreases)"
    )


def test_gl_bd_expansion(bundled_model):
    graph = expand_instances(bundled_model)
    member0 = [
        i for i in graph.ids()
        if graph.instances[i].job == "gl_bd" and graph.instances[i].member == 0
    ]
    assert len(member0) == 13
    waves = sorted(graph.instances[i].wave for i in member0)
    assert waves == [0] + [1] * 4 + [2] * 4 + [3] * 4
    assert all(graph.instances[i].duration_s == pytest.approx(66.5) for i in member0)
    # longest chain across the member's wave structure spans all four waves
    sub_edges = {
        (a, b)
        for a in member0
        for b in graph.succs[a]
        if b in member0
    }
    from epsim.model import InstanceGraph

    sub = InstanceGraph([graph.instances[i] for i in member0], sub_edges)
    length, chain = critical_path(sub)
    assert length == pytest.approx(266.0)
    assert len(chain) == 4
    ok("gl_bd: 13 instances in 4 sequential waves of 66.5 s; path contribution 266 s")


def test_property_suite(bundled_model, tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(0xE5CA9E)

    # executor: dependency safety and the concurrency bound on 200 random DAGs
    for trial in range(200):
        doc = random_dag(rng, max_nodes=50)
        parallelism = rng.randint(1, 4)
        log = execute(doc, backend=FAST, workdir=tmp_path / f"x{trial}", parallelism=parallelism)
        check_log_invariants(doc, log, parallelism)

    # simulator: lower bounds everywhere, brute-force replay on <=8 instances
    # and <=2 nodes
    replayed = 0
    for trial in range(250):
        cluster = _random_cluster(rng)
        graph = _random_graph(rng, cluster)
        assert _demand_fits(graph, cluster)
        result = simulate(graph, cluster)
        cp_len, _ = critical_path(graph)
        assert result.makespan_s >= cp_len - 1e-9
        makespan, starts = oracle_makespan(graph, cluster)
        assert result.makespan_s == pytest.approx(makespan, rel=1e-9)
        assert result.start_times == starts
        replayed += 1
    assert replayed >= 200

    # io scaling linearity, exact in bytes, on the path of `epsim schedule
    # --io-scale` followed by `epsim execute`
    profiles = [profile("A", write=7777), profile("B", write=1234)]
    byte_totals = {}
    for factor in (1, 3):
        scenario = Scenario(io_scale=float(factor))
        doc = generate_schedule(profiles, [DependencyEdge("A", "B")], EnsembleConfig(1, 1), scenario)
        log = execute(doc, backend=FAST, workdir=tmp_path / f"io{factor}")
        byte_totals[factor] = sum(e.bytes_written for e in log.entries)
    assert byte_totals[3] == 3 * byte_totals[1]

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ok(
        f"property suite: 200 executor DAGs, {replayed} simulator replays, "
        f"io linearity exact; {elapsed:.1f} s"
    )


def _random_graph(rng, cluster):
    from epsim.model import Instance, InstanceGraph

    n = rng.randint(1, 8)
    exclusive_cap = cluster.cores_per_node * cluster.node_count
    instances = []
    for i in range(n):
        queue = rng.choice(["np", "ns"])
        cap = exclusive_cap if queue == "np" else cluster.cores_per_node
        instances.append(
            Instance(
                id=f"t{i:02d}", job=f"t{i:02d}", member=0, wave=0, slot=0,
                duration_s=round(rng.uniform(0.1, 20.0), 3),
                category=JobCategory.OTHER,
                queue=queue,
                cores=rng.randint(1, cap),
            )
        )
    edges = {
        (f"t{i:02d}", f"t{j:02d}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    }
    return InstanceGraph(instances, edges)


def _random_cluster(rng):
    return ClusterSpec(
        node_count=rng.randint(1, 2),
        cores_per_node=rng.randint(1, 3),
        queues={
            "np": QueueSpec(True, rng.choice([None, 1, 2])),
            "ns": QueueSpec(False, None),
        },
    )


def test_round_trips(bundled_model, tmp_path):
    # suite model JSON
    assert suite_model_from_dict(asdict(bundled_model)) == bundled_model
    mpath = tmp_path / "model.json"
    save_suite_model(bundled_model, mpath)
    assert load_suite_model(mpath) == bundled_model

    # unified profile (.kjp), built from the bundled synthetic samples
    records = [
        parse_mpi_profile(profiles_dir() / "forecast.mpiprof"),
        parse_io_profile(profiles_dir() / "forecast.ioprof", IoMode.PARALLEL),
    ]
    unified = merge_profiles(records)
    assert profile_from_dict(profile_to_dict(unified)) == unified

    # schedule document (.kjs)
    profiles = [unified, merge_profiles([parse_mpi_profile(profiles_dir() / "gl_bd.mpiprof")])]
    doc = generate_schedule(
        profiles, [DependencyEdge("gl_bd", "Forecast")], EnsembleConfig(1, 2)
    )
    spath = tmp_path / "doc.kjs"
    save_schedule(doc, spath)
    assert load_schedule(spath) == doc
    ok("round trips: measurement CSV, suite model, unified profile, schedule document")
