"""The records of the network model and the reports: equality and hash over
their fields and only within one class, immutability where frozen, the
dataclass repr, copies, and the constructors' checks."""

import copy
import pickle
from fractions import Fraction

import pytest

from redcalc.minplus import UNBOUNDED, ConcaveCurve, RateLatency, TokenBucket
from redcalc.regulators import RATE_OVERLOAD, RegulatorVerdict
from redcalc.tfa import AnalysisReport, FlowResult, analyze
from redcalc.topology import (
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
}
FROZEN = [TokenBucket, RateLatency, DelayInterval, VertexSpec, FlowSpec, FunctionPlacement,
          NetworkSpec, RegulatorVerdict]
MUTABLE = [FlowResult, AnalysisReport]
ALL = FROZEN + MUTABLE
# a ConcaveCurve can be neither deep-copied nor pickled, so these samples
# are only copied shallowly
HOLD_A_CURVE = [FlowSpec, NetworkSpec, AnalysisReport]


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
        copies = [copy.copy(record)]
        if cls not in HOLD_A_CURVE:
            copies += [copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
        for dup in copies:
            assert type(dup) is cls and dup == record


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
