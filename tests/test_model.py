from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies

from epsim.errors import CycleDetected, SchemaError
from epsim.model import (
    ClusterSpec,
    DependencyEdge,
    EdgeScope,
    EnergyTerm,
    EnsembleConfig,
    InstanceGraph,
    JobCategory,
    JobProfile,
    MemberRole,
    QueueSpec,
    RepetitionSpec,
    SuiteModel,
    expand_instances,
    find_cycle,
    load_suite_model,
    suite_model_from_dict,
    topological_order,
    validate_suite,
)

TEST_CLUSTER = ClusterSpec(queues={"np": QueueSpec(True), "ns": QueueSpec(False)})


def make_job(name, role=MemberRole.ALL, category=JobCategory.OTHER, wc_ctrl=10.0, wc_pert=10.0,
             repetition=None, queue="np", **energy):
    if role is MemberRole.CONTROL_ONLY:
        wc_pert = 0.0
    if role is MemberRole.PERTURBED_ONLY:
        wc_ctrl = 0.0
    return JobProfile(
        name=name,
        category=category,
        role=role,
        queue=queue,
        cores_per_member=1,
        wallclock_ctrl_s=wc_ctrl,
        wallclock_pert_s=wc_pert,
        energy=EnergyTerm(**energy),
        repetition=repetition or RepetitionSpec(),
    )


def make_model(jobs, edges=(), n=2, N=4):
    return SuiteModel(EnsembleConfig(n, N), TEST_CLUSTER, tuple(jobs), tuple(edges))


class TestRepetitionSpec:
    def test_from_counts_initial_then_batches(self):
        assert RepetitionSpec.from_counts(13, 4).wave_widths == (1, 4, 4, 4)

    def test_from_counts_single_wave(self):
        assert RepetitionSpec.from_counts(5, 1).wave_widths == (5,)

    def test_from_counts_even_split(self):
        assert RepetitionSpec.from_counts(8, 3).wave_widths == (3, 3, 2)

    def test_default_is_single(self):
        assert RepetitionSpec() == RepetitionSpec(1, 1, (1,))


class TestValidation:
    def test_empty_model_is_valid_with_zero_warnings(self):
        report = validate_suite(make_model([]))
        assert report.ok
        assert report.warnings == []

    def test_bundled_model_is_valid(self, bundled_model):
        report = validate_suite(bundled_model)
        assert report.ok

    def test_two_cycle_detected(self):
        model = make_model(
            [make_job("A"), make_job("B")],
            [DependencyEdge("A", "B"), DependencyEdge("B", "A")],
        )
        report = validate_suite(model)
        codes = [i.code for i in report.errors]
        assert "CycleDetected" in codes
        msg = next(i.message for i in report.errors if i.code == "CycleDetected")
        assert "A" in msg and "B" in msg

    def test_long_chain_validates_without_recursion(self):
        names = [f"J{i:04d}" for i in range(1500)]
        chain = [DependencyEdge(a, b) for a, b in zip(names, names[1:])]
        assert validate_suite(make_model([make_job(n) for n in names], chain)).ok
        report = validate_suite(
            make_model([make_job(n) for n in names], chain + [DependencyEdge(names[-1], names[1000])])
        )
        msg = next(i.message for i in report.errors if i.code == "CycleDetected")
        assert msg == "dependency cycle: " + " -> ".join(names[1000:] + [names[1000]])

    def test_unknown_job_in_edge(self):
        report = validate_suite(make_model([make_job("A")], [DependencyEdge("A", "Ghost")]))
        assert any(i.code == "UnknownJobInEdge" for i in report.errors)

    def test_role_energy_mismatch_control_only(self):
        job = JobProfile(
            name="X", category=JobCategory.OTHER, role=MemberRole.CONTROL_ONLY,
            queue="np", cores_per_member=1, wallclock_ctrl_s=5.0, wallclock_pert_s=0.0,
            energy=EnergyTerm(per_perturbed_kj=1.0),
        )
        report = validate_suite(make_model([job]))
        assert any(i.code == "RoleEnergyMismatch" for i in report.errors)

    def test_role_energy_mismatch_perturbed_only(self):
        job = JobProfile(
            name="X", category=JobCategory.OTHER, role=MemberRole.PERTURBED_ONLY,
            queue="np", cores_per_member=1, wallclock_ctrl_s=0.0, wallclock_pert_s=5.0,
            energy=EnergyTerm(per_control_kj=2.0),
        )
        report = validate_suite(make_model([job]))
        assert any(i.code == "RoleEnergyMismatch" for i in report.errors)

    def test_perturbed_only_any_member_energy_is_a_mismatch(self):
        # c is paid per member, but the job never runs on a control member
        job = JobProfile(
            name="X", category=JobCategory.OTHER, role=MemberRole.PERTURBED_ONLY,
            queue="np", cores_per_member=1, wallclock_ctrl_s=0.0, wallclock_pert_s=5.0,
            energy=EnergyTerm(per_perturbed_kj=1.0, per_any_kj=10.0),
        )
        report = validate_suite(make_model([job]))
        assert [(i.code, i.message) for i in report.errors] == [
            ("RoleEnergyMismatch", "X: PerturbedOnly jobs must have zero control wall-clock, a and c")
        ]

    def test_contaminated_and_low_confidence_are_warnings(self, bundled_model):
        report = validate_suite(bundled_model)
        codes = {i.code for i in report.warnings}
        assert codes == {"Contaminated", "LowConfidence"}

    def test_bad_wave_widths_rejected(self):
        job = make_job("X", repetition=RepetitionSpec(5, 2, (1, 2)))
        report = validate_suite(make_model([job]))
        assert any(i.code == "InvalidRepetition" for i in report.errors)

    @pytest.mark.parametrize("widths", [(1, 1, 0), (0, 2), (3, -1)])
    def test_empty_waves_rejected(self, widths):
        job = make_job("X", repetition=RepetitionSpec(sum(widths), len(widths), widths))
        report = validate_suite(make_model([job]))
        assert [i.code for i in report.errors] == ["InvalidRepetition"]

    def test_invalid_ensemble_rejected(self):
        report = validate_suite(make_model([], n=3, N=2))
        assert any(i.code == "InvalidEnsemble" for i in report.errors)


class TestInstanceGraph:
    def test_adjacency_is_sorted_whatever_the_edge_order(self):
        graph = expand_instances(make_model([make_job("A", repetition=RepetitionSpec(5, 3, (1, 2, 2)))]))
        edges = [(p, i) for i, ps in graph.preds.items() for p in ps]
        for order in (edges, edges[::-1], sorted(edges, key=lambda e: e[::-1])):
            rebuilt = InstanceGraph(list(graph.instances.values()), order)
            assert all(list(v) == sorted(v) for v in rebuilt.preds.values())
            assert all(list(v) == sorted(v) for v in rebuilt.succs.values())
            assert (rebuilt.preds, rebuilt.succs) == (graph.preds, graph.succs)

    def test_unknown_endpoint_names_the_smallest_such_edge(self):
        graph = expand_instances(make_model([make_job("A")], n=1, N=2))
        a0, a1 = graph.ids()
        edges = [(a1, "C"), ("Z", a0), (a0, "B")]
        for given in (edges, iter(edges)):
            with pytest.raises(SchemaError, match=r"^edge \(A:m000:i000, B\) references unknown instance$"):
                InstanceGraph(list(graph.instances.values()), given)


def expansion_oracle(model):
    """Instance id -> (wave, set of predecessor ids), from the expansion rules alone."""
    n, N = model.ensemble.n_control, model.ensemble.n_total
    members = {MemberRole.ALL: range(N), MemberRole.CONTROL_ONLY: range(n), MemberRole.PERTURBED_ONLY: range(n, N)}
    slots = {}  # job -> member -> [(id, wave)] in slot order
    for job in model.jobs:
        waves = [w for w, width in enumerate(job.repetition.wave_widths) for _ in range(width)]
        slots[job.name] = {
            m: [(f"{job.name}:m{m:03d}:i{k:03d}", w) for k, w in enumerate(waves)] for m in members[job.role]
        }
    graph = {}
    for by_member in slots.values():
        for run in by_member.values():
            for iid, wave in run:
                graph[iid] = (wave, {p for p, w in run if w == wave - 1})
    for e in model.edges:
        for ms, sources in slots[e.from_job].items():
            if e.scope is EdgeScope.SAME_MEMBER:
                targets = [ms]
            elif ms >= n:
                targets = []
            else:
                targets = range(N) if e.scope is EdgeScope.CONTROL_TO_ALL else range(n, N)
            for md in targets:
                for b, _ in slots[e.to_job].get(md, []):
                    graph[b][1].update(a for a, _ in sources)
    return graph


class TestRankGraph:
    def test_ranks_and_views_match_the_oracle_past_member_999(self):
        jobs = [
            make_job("Blend", role=MemberRole.CONTROL_ONLY),
            make_job("PertAna", role=MemberRole.PERTURBED_ONLY),
            make_job("Forecast", repetition=RepetitionSpec(3, 2, (1, 2))),
            make_job("Post"),
        ]
        edges = [
            DependencyEdge("Blend", "PertAna", EdgeScope.CONTROL_TO_PERTURBED),
            DependencyEdge("Blend", "Forecast", EdgeScope.CONTROL_TO_ALL),
            DependencyEdge("PertAna", "Forecast"),
            DependencyEdge("Forecast", "Post"),
            DependencyEdge("Blend", "Post", EdgeScope.CONTROL_TO_ALL),
            DependencyEdge("Blend", "Post"),  # repeats the ControlToAll edge on control members
        ]
        model = make_model(jobs, edges, n=2, N=1001)
        graph = expand_instances(model)
        expected = expansion_oracle(model)

        ids = sorted(expected)  # as strings: Post:m1000 sorts before Post:m100
        assert ids.index("Post:m1000:i000") < ids.index("Post:m100:i000")
        assert graph.rank_ids == graph.ids() == ids
        assert [i.id for i in graph.ranked] == ids
        assert all(list(t) == sorted(set(t)) for t in graph.pred_ranks + graph.succ_ranks)

        assert {i: (inst.id, inst.wave) for i, inst in graph.instances.items()} == {
            i: (i, wave) for i, (wave, _) in expected.items()
        }
        assert dict(graph.preds) == {i: tuple(sorted(ps)) for i, (_, ps) in expected.items()}
        succs = {i: [] for i in ids}
        for i in ids:
            for p in sorted(expected[i][1]):
                succs[p].append(i)
        assert dict(graph.succs) == {i: tuple(s) for i, s in succs.items()}
        assert [tuple(graph.rank_ids[p] for p in t) for t in graph.pred_ranks] == [graph.preds[i] for i in ids]

    def test_views_are_read_only(self):
        graph = expand_instances(make_model([make_job("A"), make_job("B")], [DependencyEdge("A", "B")], n=1, N=2))
        for view in (graph.instances, graph.preds, graph.succs):
            with pytest.raises(TypeError):
                view["A:m000:i000"] = ()


class TestExpansion:
    def test_gl_bd_waves_for_one_member(self):
        rep = RepetitionSpec(13, 4, (1, 4, 4, 4))
        job = make_job("gl_bd", wc_ctrl=266.0, wc_pert=266.0, repetition=rep)
        graph = expand_instances(make_model([job], n=1, N=1))
        assert len(graph) == 13
        durations = {graph.instances[i].duration_s for i in graph.ids()}
        assert durations == {266.0 / 4}
        waves = [graph.instances[i].wave for i in graph.ids()]
        assert sorted(waves) == [0] + [1] * 4 + [2] * 4 + [3] * 4
        # every wave-k+1 instance waits for all of wave k
        for iid, inst in graph.instances.items():
            preds = graph.preds[iid]
            if inst.wave == 0:
                assert preds == ()
            else:
                assert {graph.instances[p].wave for p in preds} == {inst.wave - 1}

    def test_control_only_expands_to_n(self):
        job = make_job("Screening", role=MemberRole.CONTROL_ONLY, wc_ctrl=99.7)
        graph = expand_instances(make_model([job], n=2, N=22))
        assert len(graph) == 2

    def test_all_role_single_member(self):
        graph = expand_instances(make_model([make_job("A")], n=1, N=1))
        assert len(graph) == 1

    def test_duration_follows_member_role(self):
        job = make_job("B", wc_ctrl=335.0, wc_pert=181.0)
        graph = expand_instances(make_model([job], n=1, N=2))
        by_member = {graph.instances[i].member: graph.instances[i].duration_s for i in graph.ids()}
        assert by_member == {0: 335.0, 1: 181.0}

    def test_same_member_edges_replicated(self):
        jobs = [make_job("A"), make_job("B")]
        graph = expand_instances(make_model(jobs, [DependencyEdge("A", "B")], n=1, N=3))
        for iid, inst in graph.instances.items():
            if inst.job == "B":
                (pred,) = graph.preds[iid]
                assert graph.instances[pred].member == inst.member

    def test_control_to_perturbed_edges(self):
        jobs = [
            make_job("Blend", role=MemberRole.CONTROL_ONLY),
            make_job("PertAna", role=MemberRole.PERTURBED_ONLY),
        ]
        edge = DependencyEdge("Blend", "PertAna", EdgeScope.CONTROL_TO_PERTURBED)
        graph = expand_instances(make_model(jobs, [edge], n=2, N=5))
        targets = [i for i in graph.ids() if graph.instances[i].job == "PertAna"]
        assert len(targets) == 3
        for t in targets:
            sources = {graph.instances[p].member for p in graph.preds[t]}
            assert sources == {0, 1}

    def test_control_to_all_edges(self):
        jobs = [make_job("A"), make_job("B")]
        edge = DependencyEdge("A", "B", EdgeScope.CONTROL_TO_ALL)
        graph = expand_instances(make_model(jobs, [edge], n=1, N=3))
        for iid in (i for i in graph.ids() if graph.instances[i].job == "B"):
            assert {graph.instances[p].member for p in graph.preds[iid]} == {0}


@settings(max_examples=60)
@given(strategies.suite_models())
def test_instance_counts_follow_role_multiplier(model):
    graph = expand_instances(model)
    counts = {}
    for iid in graph.ids():
        counts[graph.instances[iid].job] = counts.get(graph.instances[iid].job, 0) + 1
    n, N = model.ensemble.n_control, model.ensemble.n_total
    members = {MemberRole.ALL: N, MemberRole.CONTROL_ONLY: n, MemberRole.PERTURBED_ONLY: N - n}
    for job in model.jobs:
        assert len(model.ensemble.members_for(job.role)) == members[job.role]
        expected = members[job.role] * job.repetition.instances
        assert counts.get(job.name, 0) == expected


@settings(max_examples=60)
@given(strategies.suite_models())
def test_expansion_preserves_acyclicity(model):
    graph = expand_instances(model)
    order = topological_order(graph.pred_ranks, graph.succ_ranks)  # raises CycleDetected on a cycle
    assert len(order) == len(graph)


@st.composite
def int_digraphs(draw, max_nodes=8):
    """(preds, succs, edges) over keys 0..n-1 inserted in random order; edges may repeat or loop."""
    n = draw(st.integers(0, max_nodes))
    keys = draw(st.permutations(range(n)))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    preds = {k: [] for k in keys}
    succs = {k: [] for k in keys}
    for a, b in edges:
        succs[a].append(b)
        preds[b].append(a)
    return preds, succs, edges


@settings(max_examples=300)
@given(int_digraphs())
def test_graph_core_against_brute_force(graph):
    preds, succs, edges = graph
    # oracle for acyclicity: no node reaches itself (Warshall's closure)
    reach = {v: set(succs[v]) for v in succs}
    for k in succs:
        for v in succs:
            if k in reach[v]:
                reach[v] |= reach[k]
    acyclic = not any(v in reach[v] for v in succs)
    assert (find_cycle(succs) is None) == acyclic
    if acyclic:
        # oracle for the order: repeatedly take the smallest node whose preds are placed
        expected: list[int] = []
        while len(expected) < len(succs):
            expected.append(
                min(v for v in succs if v not in expected and all(p in expected for p in preds[v]))
            )
        assert topological_order(preds, succs) == expected
    else:
        with pytest.raises(CycleDetected) as exc:
            topological_order(preds, succs)
        cycle = exc.value.cycle
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert len(set(cycle)) == len(cycle) - 1
        assert all((a, b) in edges for a, b in zip(cycle, cycle[1:]))
        assert str(exc.value) == "dependency cycle: " + " -> ".join(str(v) for v in cycle)


@settings(max_examples=60)
@given(strategies.suite_models())
def test_per_member_wave_chain_length(model):
    graph = expand_instances(model)
    # longest chain within one job+member equals the wave count
    for job in model.jobs:
        for member in model.ensemble.members_for(job.role):
            ids = [
                i
                for i in graph.ids()
                if graph.instances[i].job == job.name and graph.instances[i].member == member
            ]
            waves = {graph.instances[i].wave for i in ids}
            assert waves == set(range(job.repetition.waves))


class TestRoundTrip:
    def test_bundled_model_round_trip(self, bundled_model):
        raw = asdict(bundled_model)
        again = suite_model_from_dict(raw)
        assert again == bundled_model

    def test_file_round_trip(self, bundled_model, tmp_path):
        from epsim.model import save_suite_model

        path = tmp_path / "model.json"
        save_suite_model(bundled_model, path)
        assert load_suite_model(path) == bundled_model

    @settings(max_examples=40)
    @given(strategies.suite_models())
    def test_random_models_round_trip(self, model):
        assert suite_model_from_dict(asdict(model)) == model
