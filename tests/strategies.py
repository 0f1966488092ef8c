"""Hypothesis strategies for random suite models and instance graphs."""

import hypothesis.strategies as st

from epsim.model import (
    ClusterSpec,
    EnergyTerm,
    EnsembleConfig,
    Instance,
    InstanceGraph,
    JobCategory,
    JobProfile,
    MemberRole,
    QueueSpec,
    RepetitionSpec,
    SuiteModel,
)

CATEGORIES = list(JobCategory)

coefficients = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)
durations = st.floats(min_value=0.1, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def energy_terms(draw):
    return EnergyTerm(
        per_control_kj=draw(coefficients),
        per_perturbed_kj=draw(coefficients),
        per_any_kj=draw(coefficients),
        fixed_kj=draw(coefficients),
    )


@st.composite
def job_profiles(draw, name):
    role = draw(st.sampled_from(list(MemberRole)))
    term = draw(energy_terms())
    wc_ctrl = draw(durations)
    wc_pert = draw(durations)
    # keep role/energy consistency so the model validates
    if role is MemberRole.CONTROL_ONLY:
        term = EnergyTerm(term.per_control_kj, 0.0, 0.0, term.fixed_kj)
        wc_pert = 0.0
    elif role is MemberRole.PERTURBED_ONLY:
        term = EnergyTerm(0.0, term.per_perturbed_kj, 0.0, term.fixed_kj)
        wc_ctrl = 0.0
    instances = draw(st.integers(min_value=1, max_value=6))
    waves = draw(st.integers(min_value=1, max_value=instances))
    return JobProfile(
        name=name,
        category=draw(st.sampled_from(CATEGORIES)),
        role=role,
        queue=draw(st.sampled_from(["np", "ns"])),
        cores_per_member=draw(st.integers(min_value=1, max_value=72)),
        wallclock_ctrl_s=wc_ctrl,
        wallclock_pert_s=wc_pert,
        energy=term,
        repetition=RepetitionSpec.from_counts(instances, waves),
    )


@st.composite
def suite_models(draw, max_jobs=6):
    n_jobs = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = [draw(job_profiles(f"job{i:02d}")) for i in range(n_jobs)]
    n_total = draw(st.integers(min_value=1, max_value=8))
    n_control = draw(st.integers(min_value=1, max_value=n_total))
    cluster = ClusterSpec(
        node_count=None,
        cores_per_node=36,
        queues={"np": QueueSpec(True), "ns": QueueSpec(False)},
    )
    from epsim.model import DependencyEdge, EdgeScope

    edges = []
    for i in range(n_jobs):
        for j in range(i + 1, n_jobs):
            if draw(st.booleans()):
                edges.append(
                    DependencyEdge(
                        jobs[i].name,
                        jobs[j].name,
                        draw(st.sampled_from(list(EdgeScope))),
                    )
                )
    return SuiteModel(
        ensemble=EnsembleConfig(n_control, n_total),
        cluster=cluster,
        jobs=tuple(jobs),
        edges=tuple(edges),
    )


@st.composite
def instance_graphs(draw, max_nodes=8, max_cores=4, max_preds=None):
    """Small standalone DAGs for simulator oracle checks.

    Each pair of instances is an edge (lower id first) with probability 1/2;
    with max_preds, each instance instead draws at most that many
    predecessors, which gives wide graphs whose ready instances contend.
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    instances = []
    for i in range(n):
        queue = draw(st.sampled_from(["np", "ns"]))
        cores = draw(st.integers(min_value=1, max_value=max_cores))
        instances.append(
            Instance(
                id=f"t{i:02d}",
                job=f"t{i:02d}",
                member=0,
                wave=0,
                slot=0,
                duration_s=draw(durations),
                category=JobCategory.OTHER,
                queue=queue,
                cores=cores,
            )
        )
    edges = set()
    if max_preds is None:
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    edges.add((f"t{i:02d}", f"t{j:02d}"))
    else:
        for j in range(1, n):
            for i in draw(st.sets(st.integers(0, j - 1), max_size=max_preds)):
                edges.add((f"t{i:02d}", f"t{j:02d}"))
    return InstanceGraph(instances, edges)


@st.composite
def small_clusters(draw, max_nodes=2):
    return ClusterSpec(
        node_count=draw(st.integers(min_value=1, max_value=max_nodes)),
        cores_per_node=draw(st.integers(min_value=1, max_value=3)),
        queues={
            "np": QueueSpec(True, draw(st.sampled_from([None, 1, 2]))),
            "ns": QueueSpec(False, draw(st.sampled_from([None, 1, 2]))),
        },
    )
