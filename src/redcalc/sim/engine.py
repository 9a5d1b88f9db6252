"""Packet-level trajectory engine for replicated paths feeding PEF/POF/REG stages.

A scenario fixes everything: the source emissions, the per-path fate of every
replicate (a concrete delay inside the declared bounds, or a drop), and the
function pipeline at the merge point.  The engine replays that trajectory with
exact rational timestamps and emits a trace with one event per stage crossing,
so measurements (delays, reordering, compliance) are exact too.

Stage semantics:

* Each path is FIFO: replicates forwarded on a path must leave it in source
  order.  Violations are scenario errors, not silent reordering.
* The eliminator forwards the first replicate of each unit at its arrival
  instant and discards later ones.
* The re-sequencer buffers units until every live predecessor in source order
  has been released.  When a unit times out, all buffered units with smaller
  source index are flushed first, at the same instant, so the output stays in
  order.  A replicate arriving after its slot has been passed over is forwarded
  immediately.
* Regulators release the head of a queue as soon as its flow's token buckets
  refill, never earlier than the previous release from the same queue.
  Per-flow mode keeps one queue per flow; interleaved mode keeps a single
  FIFO queue where the head blocks everyone behind it.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional, Union

from ..minplus import ConcaveCurve, TokenBucket, parse_rational, rational_str
from ..topology import DelayInterval, SpecError, parse_curve

GENERATED = "generated"
BRANCH_EXIT = "branch_exit"
PEF_EXIT = "pef_exit"
POF_EXIT = "pof_exit"
REG_EXIT = "reg_exit"

DROP = "drop"

MODE_PER_FLOW = "per-flow"
MODE_INTERLEAVED = "interleaved"


class ScenarioError(ValueError):
    """A scenario is inconsistent with its own declarations."""


@dataclass(frozen=True)
class SourceUnit:
    flow: str
    unit: str
    time: Fraction
    size: Fraction

    def __post_init__(self):
        object.__setattr__(self, "time", parse_rational(self.time))
        object.__setattr__(self, "size", parse_rational(self.size))
        if self.time < 0:
            raise ScenarioError(f"unit {self.flow}/{self.unit}: negative emission time")
        if self.size < 0:
            raise ScenarioError(f"unit {self.flow}/{self.unit}: negative size")

    @property
    def key(self):
        return (self.flow, self.unit)


@dataclass(frozen=True)
class PathSpec:
    """One replicated branch: declared delay bounds plus the fate of each unit.

    ``schedule`` maps (flow, unit) to a delay or to DROP; ``default`` applies
    to units without an explicit entry (None means every unit needs one).
    """

    name: str
    bounds: DelayInterval
    schedule: dict
    default: Union[Fraction, str, None] = None
    lossy: bool = True
    fifo: bool = True

    def action_for(self, key):
        if key in self.schedule:
            return self.schedule[key]
        if self.default is None:
            raise ScenarioError(f"path {self.name}: no action for unit {key[0]}/{key[1]}")
        return self.default


@dataclass(frozen=True)
class PofSpec:
    timeout: Optional[Fraction] = None
    flows: Optional[frozenset] = None  # None = every flow in the scenario

    def __post_init__(self):
        if self.timeout is not None:
            t = parse_rational(self.timeout)
            if t < 0:
                raise ScenarioError("re-sequencer timeout must be >= 0")
            object.__setattr__(self, "timeout", t)
        if self.flows is not None:
            object.__setattr__(self, "flows", frozenset(self.flows))


@dataclass(frozen=True)
class RegSpec:
    mode: str
    shaping: dict  # flow id -> ConcaveCurve

    def __post_init__(self):
        if self.mode not in (MODE_PER_FLOW, MODE_INTERLEAVED):
            raise ScenarioError(f"unknown regulator mode {self.mode!r}")
        curves = {}
        for fid, sigma in self.shaping.items():
            if isinstance(sigma, TokenBucket):
                sigma = sigma.as_curve()
            if not isinstance(sigma, ConcaveCurve):
                raise ScenarioError(f"regulator shaping for {fid} must be a curve")
            curves[fid] = sigma
        object.__setattr__(self, "shaping", curves)


@dataclass(frozen=True)
class Pipeline:
    pef: bool = True
    pof: Optional[PofSpec] = None
    reg: Optional[RegSpec] = None


@dataclass(frozen=True)
class FlowProfile:
    arrival: Optional[ConcaveCurve] = None
    lmin: Optional[Fraction] = None
    lmax: Optional[Fraction] = None


@dataclass
class Scenario:
    name: str
    sources: list
    paths: list
    pipeline: Pipeline
    flows: dict = field(default_factory=dict)  # flow id -> FlowProfile
    allow_zero_size: bool = False
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TraceEvent:
    time: Fraction
    kind: str
    flow: str
    unit: str
    size: Fraction
    branch: Optional[str] = None
    seq: int = 0


class Trace:
    """Ordered event record of one run."""

    def __init__(self, scenario: Scenario, events: list):
        self.scenario = scenario
        self.events = sorted(events, key=lambda e: (e.time, e.seq))

    def of_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def times(self, kind: str) -> dict:
        """(flow, unit) -> event time for one stage; error on duplicates."""
        out = {}
        for e in self.of_kind(kind):
            key = (e.flow, e.unit)
            if key in out:
                raise ScenarioError(f"duplicate {kind} event for {e.flow}/{e.unit}")
            out[key] = e.time
        return out

    def final_kind(self, flow: str) -> str:
        pipe = self.scenario.pipeline
        if pipe.reg is not None and flow in pipe.reg.shaping:
            return REG_EXIT
        if pipe.pof is not None and (pipe.pof.flows is None or flow in pipe.pof.flows):
            return POF_EXIT
        if pipe.pef:
            return PEF_EXIT
        return BRANCH_EXIT

    def exit_times(self) -> dict:
        """(flow, unit) -> instant the unit left the last stage of its pipeline."""
        out = {}
        per_kind = {}
        for e in self.events:
            if e.kind == GENERATED:
                continue
            per_kind.setdefault(e.kind, {})[(e.flow, e.unit)] = e.time
        for e in self.of_kind(GENERATED):
            key = (e.flow, e.unit)
            kind = self.final_kind(e.flow)
            if key in per_kind.get(kind, {}):
                out[key] = per_kind[kind][key]
        return out

    def delays(self) -> dict:
        """(flow, unit) -> end-to-end delay, for units that made it through."""
        gen = self.times(GENERATED)
        return {k: t - gen[k] for k, t in self.exit_times().items()}

    def lost_units(self) -> list:
        gen = self.times(GENERATED)
        done = self.exit_times()
        return sorted(k for k in gen if k not in done)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["time", "kind", "branch", "flow", "unit", "size"])
        for e in self.events:
            w.writerow([
                rational_str(e.time),
                e.kind,
                e.branch or "",
                e.flow,
                e.unit,
                rational_str(e.size),
            ])
        return buf.getvalue()


def _validate_sources(scenario: Scenario):
    seen = set()
    for u in scenario.sources:
        if u.key in seen:
            raise ScenarioError(f"duplicate source unit {u.flow}/{u.unit}")
        seen.add(u.key)
        prof = scenario.flows.get(u.flow)
        if u.size == 0 and not scenario.allow_zero_size:
            raise ScenarioError(f"unit {u.flow}/{u.unit}: zero size not allowed here")
        if prof is None or u.size == 0:
            continue
        if prof.lmin is not None and u.size < prof.lmin:
            raise ScenarioError(f"unit {u.flow}/{u.unit}: size below flow minimum")
        if prof.lmax is not None and u.size > prof.lmax:
            raise ScenarioError(f"unit {u.flow}/{u.unit}: size above flow maximum")


def _branch_stage(scenario: Scenario, order: dict):
    """Apply each path's schedule; returns per-path exit lists and events."""
    events = []
    arrivals = []  # (time, path_index, source_order, unit)
    for pidx, path in enumerate(scenario.paths):
        forwarded = []
        for u in scenario.sources:
            action = path.action_for(u.key)
            if action == DROP:
                if not path.lossy:
                    raise ScenarioError(f"path {path.name}: drop on a lossless path")
                continue
            delay = parse_rational(action)
            if not path.bounds.contains(delay):
                raise ScenarioError(
                    f"path {path.name}: delay {rational_str(delay)} for "
                    f"{u.flow}/{u.unit} outside declared bounds"
                )
            exit_t = u.time + delay
            forwarded.append((order[u.key], exit_t, u))
            arrivals.append((exit_t, pidx, order[u.key], u))
            events.append(TraceEvent(exit_t, BRANCH_EXIT, u.flow, u.unit, u.size, path.name))
        if path.fifo:
            forwarded.sort(key=lambda item: item[0])
            last = None
            for _, exit_t, u in forwarded:
                if last is not None and exit_t < last:
                    raise ScenarioError(f"path {path.name}: schedule violates FIFO order")
                last = exit_t
    arrivals.sort(key=lambda item: (item[0], item[1], item[2]))
    return arrivals, events


def _pef_stage(arrivals: list):
    """First replicate wins; later copies of the same unit are discarded."""
    out = []
    seen = set()
    for exit_t, _pidx, src_order, u in arrivals:
        if u.key in seen:
            continue
        seen.add(u.key)
        out.append((exit_t, src_order, u))
    return out


def _pof_stage(inputs: list, spec: PofSpec, order: dict, scenario: Scenario):
    """Re-sequence to source order with optional per-unit timeout."""
    def member(u):
        return spec.flows is None or u.flow in spec.flows

    ranked = sorted((u for u in scenario.sources if member(u)), key=lambda u: order[u.key])
    rank_of = {u.key: i for i, u in enumerate(ranked)}

    queue = [(t, i, rank_of[u.key], u) for i, (t, _o, u) in enumerate(inputs) if member(u)]
    bypass = [(t, src, u) for t, src, u in inputs if not member(u)]

    released = []  # (time, release_index, unit)
    buffer = {}  # rank -> unit
    deadlines = []  # heap of (deadline, rank)
    expected = 0

    def release(unit, now):
        released.append((now, len(released), unit))

    def drain(now):
        nonlocal expected
        while expected in buffer:
            release(buffer.pop(expected), now)
            expected += 1

    i = 0
    while i < len(queue) or buffer:
        next_arrival = queue[i][0] if i < len(queue) else None
        fire = None
        while deadlines:
            dl, rank = deadlines[0]
            if rank < expected or rank not in buffer:
                heappop(deadlines)
                continue
            fire = (dl, rank)
            break
        if fire is not None and (next_arrival is None or fire[0] < next_arrival):
            now, rank = fire
            heappop(deadlines)
            for r in sorted(k for k in buffer if k < rank):
                release(buffer.pop(r), now)
            release(buffer.pop(rank), now)
            expected = rank + 1
            drain(now)
            continue
        if i >= len(queue):
            raise ScenarioError(
                "units stuck in the re-sequencer: missing predecessor and no timeout"
            )
        now, _iseq, rank, u = queue[i]
        i += 1
        if rank < expected:
            release(u, now)  # slot already passed over, forward as-is
            continue
        buffer[rank] = u
        if spec.timeout is not None:
            heappush(deadlines, (now + spec.timeout, rank))
        drain(now)

    out = [(t, idx, u) for t, idx, u in released]
    merged = out + [(t, len(released) + k, u) for k, (t, _src, u) in enumerate(sorted(bypass, key=lambda b: (b[0], b[1])))]
    merged.sort(key=lambda item: (item[0], item[1]))
    events = [TraceEvent(t, POF_EXIT, u.flow, u.unit, u.size) for t, _idx, u in out]
    return merged, events


class _BucketState:
    __slots__ = ("curve", "levels", "last")

    def __init__(self, curve: ConcaveCurve, start: Fraction):
        self.curve = curve
        self.levels = [seg.burst for seg in curve.segments]
        self.last = start

    def _level_at(self, idx, t):
        seg = self.curve.segments[idx]
        return min(seg.burst, self.levels[idx] + seg.rate * (t - self.last))

    def ready_time(self, size: Fraction, not_before: Fraction) -> Fraction:
        t = not_before
        for idx, seg in enumerate(self.curve.segments):
            if self._level_at(idx, t) >= size:
                continue
            if seg.rate == 0:
                raise ScenarioError("regulator starves: bucket can never refill enough")
            need = self.last + (size - self.levels[idx]) / seg.rate
            t = max(t, need)
        return t

    def consume(self, size: Fraction, t: Fraction):
        self.levels = [self._level_at(i, t) - size for i in range(len(self.levels))]
        self.last = t


def _reg_stage(inputs: list, spec: RegSpec, start: Fraction):
    """Token-bucket release of queued units; returns exits and events."""
    shaped = [(t, seq, u) for t, seq, u in inputs if u.flow in spec.shaping]
    states = {}
    for fid, sigma in spec.shaping.items():
        states[fid] = _BucketState(sigma, start)
    for t, _seq, u in shaped:
        sigma = spec.shaping[u.flow]
        if u.size > min(seg.burst for seg in sigma.segments):
            raise ScenarioError(
                f"unit {u.flow}/{u.unit}: larger than its shaping burst, can never release"
            )

    exits = []
    if spec.mode == MODE_PER_FLOW:
        by_flow = {}
        for t, seq, u in shaped:
            by_flow.setdefault(u.flow, []).append((t, seq, u))
        for fid, items in by_flow.items():
            state = states[fid]
            prev = None
            for t, seq, u in items:
                avail = t if prev is None else max(t, prev)
                rel = state.ready_time(u.size, avail)
                state.consume(u.size, rel)
                exits.append((rel, seq, u))
                prev = rel
    else:
        prev = None
        for t, seq, u in shaped:
            avail = t if prev is None else max(t, prev)
            rel = states[u.flow].ready_time(u.size, avail)
            states[u.flow].consume(u.size, rel)
            exits.append((rel, seq, u))
            prev = rel
    exits.sort(key=lambda item: (item[0], item[1]))
    events = [TraceEvent(t, REG_EXIT, u.flow, u.unit, u.size) for t, _seq, u in exits]
    return events


def run_scenario(scenario: Scenario) -> Trace:
    """Replay one trajectory and return the full stage-crossing trace."""
    _validate_sources(scenario)
    if not scenario.paths:
        raise ScenarioError("scenario needs at least one path")
    sources = sorted(scenario.sources, key=lambda u: u.time)
    order = {u.key: i for i, u in enumerate(sources)}

    seq = 0

    def stamp(ev: TraceEvent) -> TraceEvent:
        nonlocal seq
        seq += 1
        return TraceEvent(ev.time, ev.kind, ev.flow, ev.unit, ev.size, ev.branch, seq)

    events = [stamp(TraceEvent(u.time, GENERATED, u.flow, u.unit, u.size)) for u in sources]

    arrivals, branch_events = _branch_stage(scenario, order)
    events.extend(stamp(e) for e in branch_events)

    pipe = scenario.pipeline
    if pipe.pef:
        merged = _pef_stage(arrivals)
        events.extend(stamp(TraceEvent(t, PEF_EXIT, u.flow, u.unit, u.size)) for t, _o, u in merged)
    else:
        forwarded_twice = len(arrivals) != len({u.key for _t, _p, _o, u in arrivals})
        if forwarded_twice and (pipe.pof or pipe.reg):
            raise ScenarioError("duplicate replicates reach the pipeline but no eliminator is placed")
        merged = [(t, src, u) for t, _p, src, u in arrivals]

    if pipe.pof is not None:
        merged, pof_events = _pof_stage(
            [(t, o, u) for t, o, u in merged], pipe.pof, order, scenario
        )
        events.extend(stamp(e) for e in pof_events)
    else:
        merged = [(t, idx, u) for idx, (t, _o, u) in enumerate(merged)]

    if pipe.reg is not None:
        start = min((u.time for u in sources), default=Fraction(0))
        events.extend(stamp(e) for e in _reg_stage(merged, pipe.reg, start))

    return Trace(scenario, events)


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, path: str):
    """`value`, once checked to be a JSON object, list or string."""
    if not isinstance(value, kind):
        raise SpecError(path, f"expected {_KIND_NAMES[kind]}")
    return value


def _required(obj: dict, key: str, path: str):
    if key not in obj:
        raise SpecError(path, "required key is missing")
    return obj[key]


def _rational(value, path: str) -> Fraction:
    try:
        return parse_rational(value)
    except (ValueError, TypeError) as exc:
        raise SpecError(path, str(exc)) from exc


def _action(value, path: str):
    """A branch action: "drop" or {"delay": d}."""
    if value == DROP:
        return DROP
    if not isinstance(value, dict):
        raise SpecError(path, 'expected "drop" or a {"delay": ...} object')
    return _rational(_required(value, "delay", f"{path}.delay"), f"{path}.delay")


def scenario_from_json(doc) -> Scenario:
    """Build a scenario from its JSON document form.

    A malformed document raises a SpecError that names the JSON path of the
    fault; a well-formed scenario that contradicts itself raises a
    ScenarioError.
    """
    if not isinstance(doc, dict):
        raise SpecError("$", "a scenario document must be a JSON object")
    flows = {}
    for fid, raw in _typed(doc.get("flows", {}), dict, "flows").items():
        path = f"flows.{fid}"
        _typed(raw, dict, path)
        flows[fid] = FlowProfile(
            arrival=(
                parse_curve(raw["arrival"], f"{path}.arrival")
                if raw.get("arrival")
                else None
            ),
            lmin=_rational(raw["lmin"], f"{path}.lmin") if "lmin" in raw else None,
            lmax=_rational(raw["lmax"], f"{path}.lmax") if "lmax" in raw else None,
        )
    sources = []
    entries = _typed(_required(doc, "sources", "sources"), list, "sources")
    for i, raw in enumerate(entries):
        path = f"sources[{i}]"
        _typed(raw, dict, path)
        sources.append(
            SourceUnit(
                _typed(_required(raw, "flow", f"{path}.flow"), str, f"{path}.flow"),
                str(_required(raw, "unit", f"{path}.unit")),
                _rational(_required(raw, "time", f"{path}.time"), f"{path}.time"),
                _rational(_required(raw, "size", f"{path}.size"), f"{path}.size"),
            )
        )
    paths = []
    entries = _typed(_required(doc, "paths", "paths"), list, "paths")
    for i, raw in enumerate(entries):
        path = f"paths[{i}]"
        _typed(raw, dict, path)
        name = _typed(_required(raw, "name", f"{path}.name"), str, f"{path}.name")
        bounds = _required(raw, "bounds", f"{path}.bounds")
        try:
            bounds = DelayInterval.from_json(bounds)
        except (ValueError, KeyError, TypeError) as exc:
            raise SpecError(f"{path}.bounds", f"bad delay interval: {exc}") from exc
        schedule = {}
        actions = _typed(raw.get("schedule", {}), dict, f"{path}.schedule")
        for key, action in actions.items():
            fid, _, unit = key.partition("/")
            schedule[(fid, unit)] = _action(action, f"{path}.schedule.{key}")
        default = raw.get("default")
        if default is not None:
            default = _action(default, f"{path}.default")
        paths.append(
            PathSpec(
                name,
                bounds,
                schedule,
                default,
                lossy=raw.get("lossy", True),
                fifo=raw.get("fifo", True),
            )
        )
    pdoc = _typed(doc.get("pipeline", {}), dict, "pipeline")
    pof = None
    if pdoc.get("pof") is not None:
        raw = _typed(pdoc["pof"], dict, "pipeline.pof")
        timeout = raw.get("timeout")
        if timeout is not None:
            timeout = _rational(timeout, "pipeline.pof.timeout")
            if timeout < 0:
                raise SpecError("pipeline.pof.timeout", "timeout must be >= 0")
        pof_flows = raw.get("flows")
        if pof_flows:
            pof_flows = frozenset(
                _typed(fid, str, f"pipeline.pof.flows[{i}]")
                for i, fid in enumerate(_typed(pof_flows, list, "pipeline.pof.flows"))
            )
        pof = PofSpec(timeout=timeout, flows=pof_flows or None)
    reg = None
    if pdoc.get("reg") is not None:
        raw = _typed(pdoc["reg"], dict, "pipeline.reg")
        shaping = _required(raw, "shaping", "pipeline.reg.shaping")
        curves = {
            fid: parse_curve(c, f"pipeline.reg.shaping.{fid}")
            for fid, c in _typed(shaping, dict, "pipeline.reg.shaping").items()
        }
        try:
            reg = RegSpec(raw.get("mode", MODE_PER_FLOW), curves)
        except ScenarioError as exc:
            raise SpecError("pipeline.reg.mode", str(exc)) from exc
    return Scenario(
        name=doc.get("name", "scenario"),
        sources=sources,
        paths=paths,
        pipeline=Pipeline(pef=pdoc.get("pef", True), pof=pof, reg=reg),
        flows=flows,
        allow_zero_size=bool(doc.get("allow_zero_size", False)),
        meta=doc.get("meta", {}),
    )


def scenario_to_json(scenario: Scenario) -> dict:
    flows = {}
    for fid, prof in scenario.flows.items():
        raw = {}
        if prof.arrival is not None:
            raw["arrival"] = prof.arrival.to_json()
        if prof.lmin is not None:
            raw["lmin"] = rational_str(prof.lmin)
        if prof.lmax is not None:
            raw["lmax"] = rational_str(prof.lmax)
        flows[fid] = raw
    paths = []
    for p in scenario.paths:
        schedule = {}
        for (fid, unit), action in p.schedule.items():
            schedule[f"{fid}/{unit}"] = (
                DROP if action == DROP else {"delay": rational_str(action)}
            )
        default = p.default
        if default is not None and default != DROP:
            default = {"delay": rational_str(default)}
        paths.append(
            {
                "name": p.name,
                "bounds": p.bounds.to_json(),
                "schedule": schedule,
                "default": default,
                "lossy": p.lossy,
                "fifo": p.fifo,
            }
        )
    pipe = {"pef": scenario.pipeline.pef}
    if scenario.pipeline.pof is not None:
        pof = scenario.pipeline.pof
        pipe["pof"] = {
            "timeout": rational_str(pof.timeout) if pof.timeout is not None else None,
            "flows": sorted(pof.flows) if pof.flows is not None else None,
        }
    else:
        pipe["pof"] = None
    if scenario.pipeline.reg is not None:
        reg = scenario.pipeline.reg
        pipe["reg"] = {
            "mode": reg.mode,
            "shaping": {fid: c.to_json() for fid, c in reg.shaping.items()},
        }
    else:
        pipe["reg"] = None
    return {
        "name": scenario.name,
        "flows": flows,
        "sources": [
            {
                "flow": u.flow,
                "unit": u.unit,
                "time": rational_str(u.time),
                "size": rational_str(u.size),
            }
            for u in scenario.sources
        ],
        "paths": paths,
        "pipeline": pipe,
        "allow_zero_size": scenario.allow_zero_size,
        "meta": _plain(scenario.meta),
    }


def _plain(value):
    # generator metadata carries exact rationals; keep them as strings
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def load_scenario(source) -> Scenario:
    """Scenario from a dict, an open file, or a filesystem path."""
    if isinstance(source, dict):
        return scenario_from_json(source)
    if hasattr(source, "read"):
        return scenario_from_json(json.load(source))
    with open(source, "r", encoding="utf-8") as fh:
        return scenario_from_json(json.load(fh))
