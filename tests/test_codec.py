"""The JSON codec: typed readers that name the JSON path, and a fuzz of every loader."""

import copy
import json
import sys
from dataclasses import asdict
from enum import IntEnum

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epsim.codec import dump_json, integer, load_json, number, obj, opt, record, req, string, tuple_of
from epsim.datafiles import edges_path, suite_model_path
from epsim.errors import SchemaError, SuiteError
from epsim.executor import ScheduleDocument, ScheduledJob, generate_schedule, load_schedule, schedule_to_dict
from epsim.model import EnsembleConfig, JobCategory, QueueSpec, load_edges, load_suite_model
from epsim.profiles import load_profile, phase_from_dict, profile_to_dict
from epsim.whatif import Scenario, load_scenario
from test_pins import bundled_profiles


class TestReaders:
    @pytest.mark.parametrize("value", [1.0, True, "1", None])
    def test_integer_takes_json_integers_only(self, value):
        with pytest.raises(SchemaError, match=r"^n: expected integer, got "):
            integer(value, ("", "n"))

    def test_number_takes_integers_as_floats(self):
        value = number(3, "")
        assert value == 3.0 and type(value) is float

    @pytest.mark.parametrize("value", [True, False, "1", 10**400])
    def test_booleans_strings_and_overflowing_integers_are_not_numbers(self, value):
        with pytest.raises(SchemaError, match=r"^expected number, got "):
            number(value, "")

    def test_an_integer_too_long_to_print_is_named_by_its_type(self):
        # int -> str refuses more than 4,300 digits; the error must still be a SchemaError
        with pytest.raises(SchemaError, match=r"^x: expected number, got int$"):
            number(10**5000, ("", "x"))
        with pytest.raises(SchemaError, match=r"^expected integer, got list$"):
            integer([10**5000], "")

    def test_path_names_keys_and_indices(self):
        at = ((((("", "jobs"), 3), "phases"), 0), "duration_s")
        with pytest.raises(SchemaError) as exc:
            number("x", at)
        assert str(exc.value) == 'jobs[3].phases[0].duration_s: expected number, got "x"'

    def test_record_requires_fields_without_defaults(self):
        read = record(QueueSpec, exclusive_nodes=integer, max_concurrent_jobs=integer)
        assert read({}) == QueueSpec()
        read = record(EnsembleConfig, n_control=integer, n_total=integer)
        with pytest.raises(SchemaError, match=r"^ensemble\.n_total: required field is missing$"):
            read({"n_control": 1}, ("", "ensemble"))

    def test_long_values_are_cut(self):
        with pytest.raises(SchemaError) as exc:
            tuple_of(string)(["ok", list(range(100))], "names")
        message = str(exc.value)
        assert message.startswith("names[1]: expected string, got [0, 1, 2")
        assert message.endswith("...") and len(message) < 100

    def test_load_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff{")
        with pytest.raises(SchemaError, match="bad.json: not valid JSON"):
            load_json(path, integer)
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SchemaError, match="bad.json: not valid JSON"):
            load_json(path, integer)


# a document with one value nested `depth` arrays deep, its loader, and the
# path and nesting of the value the loader rejects
DEEP = {
    "kjs": ('{"jobs": [{"job_id": 0, "name": "a", "phases": %s}]}', load_schedule, "jobs[0].phases[0]", -1),
    "model": ('{"ensemble": %s}', load_suite_model, "ensemble", 0),
}


@pytest.mark.parametrize("document", list(DEEP))
def test_deep_nesting_is_an_input_error_not_a_recursion_error(tmp_path, document):
    # json.load's depth limit shares the recursion limit with the readers, so
    # the depths it still parses are found here, from the deepest one down
    text, load, where, rejected = DEEP[document]
    path = tmp_path / f"deep.{document}"

    def message(depth: int) -> str:
        path.write_text(text % ("[" * depth + "]" * depth), encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load(path)
        return str(exc.value)

    depth = sys.getrecursionlimit()
    while "not valid JSON" in message(depth):
        depth -= 1
    for depth in range(depth, depth - 20, -1):
        shown = "[" * (depth + rejected) + "]" * (depth + rejected)
        assert message(depth) == f"{path}: {where}: expected object, got {shown[:57]}..."


# ---------------------------------------------------------------------------
# fuzz: mutated bundled documents reach the loaders, and only SuiteError escapes


def _documents():
    profiles = bundled_profiles()
    schedule = generate_schedule(profiles, list(load_edges(edges_path())), EnsembleConfig(1, 1))
    scenario = Scenario(
        n_prime=2,
        N_prime=40,
        speedup={JobCategory.FORECAST: 2.0},
        energy_factor={JobCategory.LBCS: 0.5},
        io_scale=0.5,
    )
    as_json = lambda doc: json.loads(json.dumps(doc))  # noqa: E731 - plain JSON values only
    return {
        "model": (json.loads(suite_model_path().read_text()), load_suite_model),
        "scenario": (as_json(asdict(scenario)), load_scenario),
        "kjp": (as_json(profile_to_dict(profiles[0])), load_profile),
        "kjs": (as_json(schedule_to_dict(schedule)), load_schedule),
    }


DOCUMENTS = _documents()
REPLACEMENTS = [None, True, False, 0, -1, 1.0, 2.5, "x", "", [], {}, [1], {"a": 1}]


def _locations(doc, keys=()):
    yield keys
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _locations(v, keys + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _locations(v, keys + (i,))


def _mutate(doc, pick: int, op: str, value):
    where = list(_locations(doc))[pick % sum(1 for _ in _locations(doc))]
    if not where:
        return value  # the whole document replaced
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    old = parent[where[-1]]
    if op == "drop":
        del parent[where[-1]]
    elif op == "container" and isinstance(old, dict):
        parent[where[-1]] = list(old.values())
    elif op == "container" and isinstance(old, list):
        parent[where[-1]] = {str(i): v for i, v in enumerate(old)}
    else:
        parent[where[-1]] = value
    return doc


mutations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["drop", "type", "container"]),
        st.sampled_from(REPLACEMENTS),
    ),
    min_size=1,
    max_size=3,
)


@pytest.mark.parametrize("document", list(DOCUMENTS))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=mutations)
def test_loaders_raise_only_suite_errors(tmp_path, document, steps):
    doc, load = DOCUMENTS[document]
    doc = copy.deepcopy(doc)
    for pick, op, value in steps:
        doc = _mutate(doc, pick, op, copy.deepcopy(value))
    path = tmp_path / f"fuzz.{document}"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load(path)
    except SchemaError as exc:
        assert str(exc).startswith(f"{path}: ")
    except SuiteError:
        pass  # a semantic check, such as Scenario.check


# the .kjs reader decodes each distinct phase list once; its oracle is the
# checked reading of every entry, built here from the generic readers
_reference_job = record(
    ScheduledJob,
    job_id=integer,
    name=string,
    depends_on=tuple_of(integer),
    phases=tuple_of(phase_from_dict),
    metadata=obj,
)


def _reference_schedule(raw, at=""):
    o = obj(raw, at)
    scale = opt(o, "scale", at, obj, {})
    return ScheduleDocument(
        jobs=tuple(sorted(req(o, "jobs", at, tuple_of(_reference_job)), key=lambda j: j.job_id)),
        created_from=opt(o, "created_from", at, tuple_of(string), ()),
        io_scale=opt(scale, "io_scale", (at, "scale"), number, 1.0),
        compute_scale=opt(scale, "compute_scale", (at, "scale"), number, 1.0),
    )


def _assert_loads_as_reference(path):
    try:
        expected = load_json(path, _reference_schedule)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            load_schedule(path)
        assert str(got.value) == str(exc)
    else:
        assert load_schedule(path) == expected


# two members, so that every job name's phase list appears twice
_two_members = generate_schedule(bundled_profiles(), list(load_edges(edges_path())), EnsembleConfig(1, 2))
SHARED_KJS = json.loads(json.dumps(schedule_to_dict(_two_members)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=mutations)
def test_kjs_loader_matches_the_checked_reference(tmp_path, steps):
    doc = copy.deepcopy(SHARED_KJS)
    for pick, op, value in steps:
        doc = _mutate(doc, pick, op, copy.deepcopy(value))
    path = tmp_path / "fuzz.kjs"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _assert_loads_as_reference(path)


@pytest.mark.parametrize(
    "field, first, second",
    [
        ("bytes", 1, 1.0),
        ("bytes", 1, True),
        ("ranks", 4, 4.0),
        ("duration_s", 1, True),
        ("duration_s", 1.0, True),
        ("duration_s", 1, 1.0),  # both numbers: accepted, and equal
    ],
)
def test_kjs_phase_lists_that_differ_only_in_type_are_read_apart(tmp_path, field, first, second):
    def job(job_id, value):
        phase = {"kind": "compute"} if field == "duration_s" else {"kind": "mpi_exchange", "bytes": 8, "ranks": 2}
        return {"job_id": job_id, "name": "a", "phases": [{**phase, field: value}]}

    path = tmp_path / "typed.kjs"
    path.write_text(json.dumps({"jobs": [job(0, first), job(1, second)]}), encoding="utf-8")
    _assert_loads_as_reference(path)


# ---------------------------------------------------------------------------
# the writer: json.dumps(indent=2) is its oracle, on every kind of JSON value


class Level(IntEnum):
    LOW = 1
    HIGH = -7


class Ratio(float):
    def __repr__(self):  # json.dumps ignores it, and so must dump_json
        return "Ratio()"


def _oracle(value) -> str:
    return json.dumps(value, indent=2) + "\n"


texts = st.text(st.characters(blacklist_categories=()))  # control, non-ASCII and lone surrogates
numbers = st.one_of(
    st.integers(),
    st.floats(),  # NaN and ±Infinity included
    st.sampled_from(list(Level) + [JobCategory.FORECAST]),  # IntEnum and str-Enum members
    st.floats().map(Ratio),
)
leaves = st.one_of(st.none(), st.booleans(), numbers, texts, st.sampled_from([[], (), {}, [[]], {"": {}}]))
keys = st.one_of(texts, st.integers(), st.floats(), st.booleans(), st.none(), st.sampled_from(list(Level)))
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(value=json_values)
@example({float("nan"): 1, float("inf"): [], -float("inf"): {}, Ratio(0.5): (), Level.HIGH: None, False: 0})
@example([float("nan"), Ratio(float("-inf")), Level.LOW, True, None, "\x00é\ud800", [(), [{}]]])
def test_dump_json_writes_what_json_dumps_writes(value):
    assert dump_json(value) == _oracle(value)


def _circular_list():
    a = [1]
    a.append({"back": a})
    return a


def _circular_dict():
    d = {"a": []}
    d["a"].append(d)
    return d


@pytest.mark.parametrize("make", [_circular_list, _circular_dict])
def test_dump_json_rejects_circular_containers(make):
    with pytest.raises(ValueError) as expected:
        _oracle(make())
    with pytest.raises(ValueError) as got:
        dump_json(make())
    assert str(got.value) == str(expected.value) == "Circular reference detected"


@pytest.mark.parametrize(
    "value",
    [object(), {1, 2}, b"x", 1j, [1, {"a": (2, object())}], {(1, 2): 3}, {"k": {frozenset(): 1}}],
    ids=["object", "set", "bytes", "complex", "nested-object", "tuple-key", "nested-frozenset-key"],
)
def test_dump_json_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError) as expected:
        _oracle(value)
    with pytest.raises(TypeError) as got:
        dump_json(value)
    assert str(got.value) == str(expected.value)


def test_a_shared_container_is_not_circular():
    shared = [1, {"x": 2.5}]
    value = {"a": shared, "b": [shared, shared]}
    assert dump_json(value) == _oracle(value)


def _nest(value, depth: int):
    """`value` inside `depth` alternating one-entry dicts and lists."""
    for level in range(depth):
        value = {"k": value} if level % 2 else [value]
    return value


@settings(max_examples=200, deadline=None)
@given(
    shared=st.one_of(st.lists(json_values, min_size=1, max_size=3), st.tuples(json_values, json_values)),
    depths=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=6),
)
@example(shared=[1, {"x": [2.5]}], depths=[0, 1, 0])
@example(shared=[[], "a"], depths=[2, 2, 0, 2])
def test_dump_json_reuses_a_shared_list_only_at_its_own_indent(shared, depths):
    # one list object met again and again at the same and at other indents
    value = [_nest(shared, d) for d in depths]
    assert dump_json(value) == _oracle(value)
