"""The records of the network model, the reports and the simulator's
scenarios: equality and hash over their fields and only within one class,
immutability where frozen, the dataclass repr, copies, changed copies, and
the constructors' checks."""

import copy
import pickle
from fractions import Fraction

import pytest

import redcalc.cli  # noqa: F401  (loads every module that defines a record)
import redcalc.sim  # noqa: F401
from redcalc.minplus import UNBOUNDED, ConcaveCurve, RateLatency, TokenBucket
from redcalc.record import FrozenRecord, Record
from redcalc.regulators import RATE_OVERLOAD, RegulatorVerdict
from redcalc.sim import (
    DROP,
    PathSpec,
    Pipeline,
    PofSpec,
    RegSpec,
    Scenario,
    ScenarioError,
    SourceUnit,
    TraceEvent,
    load_scenario,
)
from redcalc.sim.engine import FlowProfile
from redcalc.tfa import AnalysisReport, FlowResult, analyze, compare_models
from redcalc.topology import (
    REG_INTERLEAVED,
    DelayInterval,
    FlowSpec,
    FunctionPlacement,
    NetworkSpec,
    VertexSpec,
    bundled_dir,
    load_network,
)


def _network() -> NetworkSpec:
    return load_network(bundled_dir().joinpath("net-toy-pef-pof-pfr.json"))


# one record of each class, built afresh on every call
SAMPLES = {
    TokenBucket: lambda: TokenBucket(1, "5/2"),
    RateLatency: lambda: RateLatency(2, "1/3"),
    DelayInterval: lambda: DelayInterval(1, UNBOUNDED),
    VertexSpec: lambda: VertexSpec("p", RateLatency(2, 0), DelayInterval(0, 1)),
    FlowSpec: lambda: FlowSpec(
        "f", "A", ("C",), (("A", "B"), ("B", "C")), ConcaveCurve([(1, 1)]),
        Fraction(1), Fraction(2), {"C": Fraction(9)},
    ),
    FunctionPlacement: lambda: FunctionPlacement("pof", "C", frozenset({"f"}), "A", "3/2"),
    NetworkSpec: _network,
    RegulatorVerdict: lambda: RegulatorVerdict.unbounded(RATE_OVERLOAD, q_min=3),
    FlowResult: lambda: FlowResult("f", "C", DelayInterval(1, 4), Fraction(5), "met"),
    AnalysisReport: lambda: AnalysisReport(*analyze(_network())._key()),  # no analyzer kept
    SourceUnit: lambda: SourceUnit("f", "1", "1/2", 3),
    PathSpec: lambda: PathSpec("short", DelayInterval(0, 1), {("f", "1"): Fraction(1)}, DROP,
                               True, False),
    PofSpec: lambda: PofSpec("3/2", ["f"]),
    RegSpec: lambda: RegSpec(REG_INTERLEAVED, {"f": ConcaveCurve([(1, 2)])}),
    Pipeline: lambda: Pipeline(False, PofSpec(1), None),
    FlowProfile: lambda: FlowProfile(ConcaveCurve([(1, 1)]), 1, "3/2"),
    Scenario: lambda: load_scenario(bundled_dir().joinpath("scn-toy-lossy.json")),
}
FROZEN = [TokenBucket, RateLatency, DelayInterval, VertexSpec, FlowSpec, FunctionPlacement,
          NetworkSpec, RegulatorVerdict, SourceUnit, PathSpec, PofSpec, RegSpec, Pipeline,
          FlowProfile]
MUTABLE = [FlowResult, AnalysisReport, Scenario]
ALL = FROZEN + MUTABLE


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
class TestRecords:
    def test_the_key_holds_the_fields_in_order(self, cls):
        record = SAMPLES[cls]()
        assert record._key() == tuple(getattr(record, name) for name in cls._fields)
        assert record._asdict() == dict(zip(cls._fields, record._key()))
        # the constructor takes the fields in that order
        assert cls(*record._key())._key() == record._key()

    def test_equal_fields_give_equal_records(self, cls):
        a, b = SAMPLES[cls](), SAMPLES[cls]()
        assert a is not b and a == b and not a != b
        if cls in MUTABLE:
            assert cls.__hash__ is None
            with pytest.raises(TypeError):
                hash(a)
        elif _hashable(a._key()):
            assert hash(a) == hash(b) == hash(a._key())
        else:  # a dict among the fields, as a frozen dataclass has it
            with pytest.raises(TypeError):
                hash(a)

    def test_any_other_field_makes_them_unequal(self, cls):
        a = SAMPLES[cls]()
        for name in cls._fields:
            b = copy.copy(a)
            object.__setattr__(b, name, object())  # equal to nothing else
            assert a != b and not a == b, name

    def test_another_class_with_the_same_fields_is_unequal(self, cls):
        record = SAMPLES[cls]()
        other = type("Other", (cls,), {"__slots__": ()})(*record._key())
        assert other._key() == record._key()
        assert record != other and other != record
        assert record != record._key()

    def test_repr_names_the_class_and_its_fields(self, cls):
        record = SAMPLES[cls]()
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
        assert repr(record) == f"{cls.__qualname__}({fields})"

    def test_assignment(self, cls):
        record = SAMPLES[cls]()
        name, value = cls._fields[-1], getattr(record, cls._fields[-1])
        if cls in MUTABLE:
            setattr(record, name, "changed")
            assert getattr(record, name) == "changed"
            return
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, "changed")
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1
        assert getattr(record, name) is value

    def test_copies_are_equal(self, cls):
        record = SAMPLES[cls]()
        for dup in copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)):
            assert type(dup) is cls and dup == record

    def test_replace_without_changes_gives_an_equal_copy(self, cls):
        record = SAMPLES[cls]()
        same = record._replace()
        assert type(same) is cls and same is not record and same == record
        with pytest.raises(TypeError):
            record._replace(unknown=1)


def test_replace_runs_the_constructors_checks():
    assert PofSpec(1)._replace(timeout="5/2") == PofSpec("5/2")
    with pytest.raises(ScenarioError, match="re-sequencer timeout must be >= 0"):
        PofSpec(1)._replace(timeout=-1)
    with pytest.raises(ValueError, match="token bucket burst must be >= 0"):
        TokenBucket(1, 2)._replace(burst=-1)
    with pytest.raises(ScenarioError, match="lmax must be >= lmin"):
        FlowProfile(None, 2)._replace(lmax=1)
    # the copy is parsed as the constructor parses its arguments
    assert SourceUnit("f", "1", 0, 1)._replace(time="1/2").time == Fraction(1, 2)


def test_trace_events_are_named_tuples():
    event = TraceEvent(3, 2, "generated", "f", "1", Fraction(1))
    assert event.branch is None and event.time == Fraction(3, 2)
    assert event == (3, 2, "generated", "f", "1", Fraction(1), None)
    assert TraceEvent._fields == ("tick", "grid", "kind", "flow", "unit", "size", "branch")
    assert repr(event) == (
        "TraceEvent(tick=3, grid=2, kind='generated', flow='f', unit='1', "
        "size=Fraction(1, 1), branch=None)"
    )
    assert event._replace(branch="short").branch == "short"
    assert not hasattr(event, "__dict__")
    assert pickle.loads(pickle.dumps(event)) == event


def test_copies_of_curves_and_reports_are_equal():
    # a ConcaveCurve is rebuilt through its constructor, so the reports
    # that hold curves copy deeply and pickle; the report of `analyze`
    # copies with its analyzer, which == leaves out
    network = _network()
    pair = compare_models(network)
    for record in network.flows["f"].arrival, analyze(network), pair["tight"], pair["intuitive"]:
        for dup in copy.deepcopy(record), pickle.loads(pickle.dumps(record)):
            assert type(dup) is type(record) and dup == record


def test_repr_is_the_dataclass_one():
    assert repr(TokenBucket(1, "5/2")) == "TokenBucket(rate=Fraction(1, 1), burst=Fraction(5, 2))"
    assert repr(DelayInterval(0, UNBOUNDED)) == "DelayInterval(lo=Fraction(0, 1), hi=inf)"
    assert repr(RegulatorVerdict.of_interval(DelayInterval(1, 1))) == (
        "RegulatorVerdict(bounded=True, delay=DelayInterval(lo=Fraction(1, 1), "
        "hi=Fraction(1, 1)), reason=None, q_min=None, proven=True)"
    )


def test_curves_of_two_kinds_with_the_same_numbers_differ():
    assert TokenBucket(1, 2) != RateLatency(1, 2)
    assert TokenBucket(1, 2) == TokenBucket("1", Fraction(2))
    assert {TokenBucket(1, 2), TokenBucket(1, 2), DelayInterval(1, 2)} == {
        TokenBucket(1, 2), DelayInterval(1, 2)
    }


def test_vertex_defaults():
    vertex = VertexSpec("p")
    assert vertex.service is None and vertex.tech == DelayInterval(0, 0)
    assert VertexSpec("p") == vertex


def test_flow_structure_is_computed_once(monkeypatch):
    from redcalc import topology

    calls = []
    topo = topology._topo
    monkeypatch.setattr(topology, "_topo", lambda *a: calls.append(a) or topo(*a))
    flow = SAMPLES[FlowSpec]()
    first = (flow.vertices, flow.parents, flow.children, flow.order)
    again = (flow.vertices, flow.parents, flow.children, flow.order)
    assert all(a is b for a, b in zip(first, again))
    assert len(calls) == 1 and flow.order == ("A", "B", "C")
    # the cache is no field
    assert flow == SAMPLES[FlowSpec]() and "order" not in repr(flow)


class TestConstructorChecks:
    # the checks that tests/test_minplus.py and tests/test_topology.py leave out
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TokenBucket("x", -1), "x"),  # both parsed before either check
            (lambda: RateLatency(1, -1), "latency must be >= 0"),
            (lambda: FunctionPlacement("xyz", "v", frozenset()), "unknown function kind 'xyz'"),
            (lambda: FunctionPlacement("pof", "v", frozenset(), "o", -1), "timeout must be >= 0"),
        ],
    )
    def test_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_parsed(self):
        assert TokenBucket("1/2", 3).rate == Fraction(1, 2)
        assert RateLatency("3", "1/4").latency == Fraction(1, 4)
        assert DelayInterval("1/3", UNBOUNDED).lo == Fraction(1, 3)
        assert type(DelayInterval(0, "7").hi) is Fraction
        assert FunctionPlacement("pof", "v", frozenset(), "o", "5/2").timeout == Fraction(5, 2)
        assert FunctionPlacement("pof", "v", frozenset(), "o").timeout is None


def test_all_names_every_record_class_of_the_package():
    # ALL names them all, so TestRecords runs on each class's key getter
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("redcalc."):
                found.add(sub)
    assert found - {FrozenRecord} == set(ALL)


# throwaway records of one field and of none: `operator.attrgetter` of one
# name gives the bare value, and of none it cannot be built
class OneFrozen(FrozenRecord):
    __slots__ = _fields = ("x",)

    def __init__(self, x):
        self._set_fields(x)


class NoneFrozen(FrozenRecord):
    __slots__ = _fields = ()


class OneMutable(Record):
    __slots__ = _fields = ("x",)

    def __init__(self, x):
        self._set_fields(x)


class NoneMutable(Record):
    __slots__ = _fields = ()


@pytest.mark.parametrize("cls", [OneFrozen, NoneFrozen, OneMutable, NoneMutable],
                         ids=lambda c: c.__name__)
def test_records_of_one_field_and_of_none(cls):
    args = (Fraction(1, 3),) if cls._fields else ()
    a, b = cls(*args), cls(*args)
    assert a._key() == args and type(a._key()) is tuple
    assert a._asdict() == dict(zip(cls._fields, args))
    assert a == b and not a != b and a != args
    if cls._fields:
        assert a != a._replace(x=2) and a._replace(x=2)._key() == (2,)
    if issubclass(cls, FrozenRecord):
        assert hash(a) == hash(b) == hash(args)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for dup in a._replace(), copy.deepcopy(a), pickle.loads(pickle.dumps(a)):
        assert type(dup) is cls and dup is not a and dup == a
