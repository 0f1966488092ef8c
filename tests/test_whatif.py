import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracle_data as oracle
import strategies

from epsim.energy import affine_total, suite_total
from epsim.errors import DegeneratePath, InvalidScenario
from epsim.model import (
    EnsembleConfig,
    JobCategory,
    MemberPath,
    expand_instances,
)
from epsim.simulate import simulate
from epsim.whatif import (
    Scenario,
    apply_scenario,
    energy_savings,
    load_scenario,
    max_speedup,
    scenario_from_dict,
)
from test_model import make_job, make_model


class TestApplyScenario:
    def test_identity_returns_equal_model(self, bundled_model):
        assert apply_scenario(bundled_model, Scenario()) == bundled_model

    def test_member_rescaling_to_2_42(self, bundled_model):
        scaled = apply_scenario(bundled_model, Scenario(n_prime=2, N_prime=42))
        assert suite_total(scaled) == pytest.approx(oracle.EXPECTED_TOTAL_2_42, rel=1e-6)

    def test_forecast_speedup_halves_wallclock_only(self, bundled_model):
        scenario = Scenario(speedup={JobCategory.FORECAST: 2.0})
        scaled = {j.name: j for j in apply_scenario(bundled_model, scenario).jobs}
        base = {j.name: j for j in bundled_model.jobs}
        assert scaled["Forecast"].wallclock_ctrl_s == pytest.approx(645.0)
        assert scaled["Forecast"].energy == base["Forecast"].energy
        assert scaled["Bator"].wallclock_ctrl_s == base["Bator"].wallclock_ctrl_s

    def test_energy_factor_leaves_wallclock(self, bundled_model):
        scenario = Scenario(energy_factor={JobCategory.FORECAST: 0.5})
        forecast = {j.name: j for j in apply_scenario(bundled_model, scenario).jobs}["Forecast"]
        assert forecast.wallclock_ctrl_s == 1290.0
        assert forecast.energy.per_any_kj == pytest.approx(6469.8 / 2)

    def test_original_model_unchanged(self, bundled_model):
        before = suite_total(bundled_model)
        apply_scenario(bundled_model, Scenario(energy_factor={JobCategory.FORECAST: 0.0}))
        assert suite_total(bundled_model) == before

    def test_invalid_divisor_rejected(self, bundled_model):
        with pytest.raises(InvalidScenario):
            apply_scenario(bundled_model, Scenario(speedup={JobCategory.FORECAST: 0.5}))

    def test_negative_energy_factor_rejected(self, bundled_model):
        with pytest.raises(InvalidScenario):
            apply_scenario(bundled_model, Scenario(energy_factor={JobCategory.OTHER: -1.0}))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: Scenario(speedup={JobCategory.FORECAST: x}),
            lambda x: Scenario(energy_factor={JobCategory.FORECAST: x}),
            lambda x: Scenario(io_scale=x),
            lambda x: Scenario(compute_scale=x),
        ],
        ids=["speedup", "energy_factor", "io_scale", "compute_scale"],
    )
    def test_non_finite_values_rejected(self, make, bad):
        with pytest.raises(InvalidScenario, match="finite"):
            make(bad).check()


class TestMaxSpeedup:
    def test_control_path_forecast(self, bundled_model):
        factor = max_speedup(bundled_model, JobCategory.FORECAST, MemberPath.CONTROL)
        assert factor == pytest.approx(1.57, abs=0.02)

    def test_perturbed_path_forecast(self, bundled_model):
        factor = max_speedup(bundled_model, JobCategory.FORECAST, MemberPath.PERTURBED)
        assert factor == pytest.approx(2.04, abs=0.02)

    def test_empty_category_gives_one(self, bundled_model):
        # nothing in the bundled catalog uses every category; craft one absent
        model = make_model([make_job("X", category=JobCategory.OTHER)])
        assert max_speedup(model, JobCategory.FORECAST, MemberPath.CONTROL) == 1.0

    def test_whole_path_category_is_unbounded(self):
        model = make_model([make_job("F", category=JobCategory.FORECAST)])
        assert max_speedup(model, JobCategory.FORECAST, MemberPath.CONTROL) == math.inf

    def test_empty_path_degenerate(self):
        model = make_model([])
        with pytest.raises(DegeneratePath):
            max_speedup(model, JobCategory.FORECAST, MemberPath.CONTROL)


class TestEnergySavings:
    def test_forecast_to_zero(self, bundled_model):
        _, fraction = energy_savings(
            bundled_model, EnsembleConfig(2, 22), JobCategory.FORECAST, 0.0
        )
        assert fraction == pytest.approx(0.971, abs=0.001)

    def test_factor_one_saves_nothing(self, bundled_model):
        saved, fraction = energy_savings(
            bundled_model, EnsembleConfig(2, 22), JobCategory.FORECAST, 1.0
        )
        assert saved == 0.0
        assert fraction == 0.0

    def test_half_factor_halves_fraction(self, bundled_model):
        _, fraction = energy_savings(
            bundled_model, EnsembleConfig(2, 22), JobCategory.FORECAST, 0.5
        )
        assert fraction == pytest.approx(0.486, abs=0.001)

    def test_factor_out_of_range(self, bundled_model):
        with pytest.raises(InvalidScenario):
            energy_savings(bundled_model, EnsembleConfig(2, 22), JobCategory.FORECAST, 1.5)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        scenario = Scenario(
            n_prime=2,
            N_prime=42,
            speedup={JobCategory.FORECAST: 2.0},
            energy_factor={JobCategory.LBCS: 0.5},
            io_scale=3.0,
        )
        path = tmp_path / "s.json"
        import json

        path.write_text(json.dumps(asdict(scenario)))
        assert load_scenario(path) == scenario

    def test_unknown_category_rejected(self):
        import epsim.errors

        with pytest.raises(epsim.errors.SchemaError):
            scenario_from_dict({"speedup": {"Nonsense": 2.0}})


# ---------------------------------------------------------------------------
# properties


scenario_pairs = st.tuples(
    st.dictionaries(st.sampled_from(list(JobCategory)), st.floats(1.0, 10.0), max_size=3),
    st.dictionaries(st.sampled_from(list(JobCategory)), st.floats(0.0, 4.0), max_size=3),
)


def _product(first, second):
    return {c: first.get(c, 1.0) * second.get(c, 1.0) for c in {**first, **second}}


@settings(max_examples=50)
@given(strategies.suite_models(), scenario_pairs, scenario_pairs)
def test_apply_scenario_composes(model, first_maps, second_maps):
    # two scenarios in turn act as one whose divisors and factors are the products
    s1 = Scenario(speedup=first_maps[0], energy_factor=first_maps[1])
    s2 = Scenario(speedup=second_maps[0], energy_factor=second_maps[1])
    stepwise = apply_scenario(apply_scenario(model, s1), s2)
    combined = apply_scenario(
        model,
        Scenario(speedup=_product(s1.speedup, s2.speedup), energy_factor=_product(s1.energy_factor, s2.energy_factor)),
    )
    for a, b in zip(stepwise.jobs, combined.jobs):
        assert a.wallclock_ctrl_s == pytest.approx(b.wallclock_ctrl_s, rel=1e-12, abs=1e-12)
        assert a.wallclock_pert_s == pytest.approx(b.wallclock_pert_s, rel=1e-12, abs=1e-12)
        assert a.energy.per_any_kj == pytest.approx(b.energy.per_any_kj, rel=1e-12, abs=1e-12)
        assert a.energy.per_control_kj == pytest.approx(b.energy.per_control_kj, rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(strategies.suite_models(), st.integers(1, 30), st.integers(0, 30))
def test_member_rescaling_keeps_affine_coefficients(model, n_prime, extra):
    scenario = Scenario(n_prime=n_prime, N_prime=n_prime + extra)
    assert affine_total(apply_scenario(model, scenario)) == affine_total(model)


@settings(max_examples=60)
@given(strategies.suite_models(), st.sampled_from(list(JobCategory)), st.sampled_from(list(MemberPath)))
def test_max_speedup_matches_path_sums(model, category, path):
    on_path = [j for j in model.jobs if j.runs_on(path)]
    total = sum(j.wallclock_for(path) for j in on_path)
    part = sum(j.wallclock_for(path) for j in on_path if j.category is category)
    if total == 0:
        with pytest.raises(DegeneratePath):
            max_speedup(model, category, path)
        return
    expected = math.inf if part == total else total / (total - part)
    got = max_speedup(model, category, path)
    if math.isinf(expected) or math.isinf(got):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=1e-9)


def test_speedup_monotone_in_category_share(bundled_model):
    # shrinking the forecast share of the path shrinks the attainable speedup
    base = max_speedup(bundled_model, JobCategory.FORECAST, MemberPath.CONTROL)
    shrunk = apply_scenario(bundled_model, Scenario(speedup={JobCategory.FORECAST: 2.0}))
    assert max_speedup(shrunk, JobCategory.FORECAST, MemberPath.CONTROL) <= base
    assert base >= 1.0


def test_simulated_makespan_converges_to_no_forecast_path(bundled_model):
    scenario = Scenario(speedup={JobCategory.FORECAST: 1e6})
    scaled = apply_scenario(bundled_model, scenario)
    result = simulate(expand_instances(scaled), scaled.cluster)
    limit = oracle.EXPECTED_CTRL_PATH_S - oracle.path_category_seconds("Forecast", "control")
    assert result.makespan_s == pytest.approx(limit, rel=1e-3)
