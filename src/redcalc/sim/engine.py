"""Packet-level trajectory engine for replicated paths feeding PEF/POF/REG stages.

A scenario fixes everything: the source emissions, the per-path fate of every
replicate (a concrete delay inside the declared bounds, or a drop), and the
function pipeline at the merge point.  The engine replays that trajectory with
exact timestamps and emits a trace with one event per stage crossing, so
measurements (delays, reordering, compliance) are exact too.

Time base: every source time, branch delay and re-sequencer timeout is a
rational, so each is an integer number of ticks of 1/grid, where grid is the
least common multiple of their denominators.  The stages add, compare and
sort those integers, and Fractions appear only where a value leaves the
engine: the `time` of each `TraceEvent` and what `Trace` returns.  The
regulators run on the same ticks.  A token bucket refilling at rate r
releases at last + (size - level) / r, which looks as if it left every fixed
grid, but held as the instant the bucket was last empty it needs only sums
of arrival instants, burst / r and size / r.  Those terms are on the grid
once it also covers their denominators (see `_reg_grid`).

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
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional, Union

from ..minplus import (
    ConcaveCurve,
    is_unbounded,
    parse_rational,
    rational_str,
)
from ..topology import (
    REG_INTERLEAVED,
    REG_PER_FLOW,
    DelayInterval,
    SpecError,
    _parsed,
    _rational,
    _read_document,
    _required,
    _typed,
    parse_curve,
)

GENERATED = "generated"
BRANCH_EXIT = "branch_exit"
PEF_EXIT = "pef_exit"
POF_EXIT = "pof_exit"
REG_EXIT = "reg_exit"

DROP = "drop"


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
        if self.mode not in (REG_PER_FLOW, REG_INTERLEAVED):
            raise ScenarioError(f"unknown regulator mode {self.mode!r}")
        for fid, sigma in self.shaping.items():
            if not isinstance(sigma, ConcaveCurve):
                raise ScenarioError(f"regulator shaping for {fid} must be a curve")
        object.__setattr__(self, "shaping", dict(self.shaping))


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

    def __post_init__(self):
        for name in ("lmin", "lmax"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, parse_rational(getattr(self, name)))


@dataclass
class Scenario:
    name: str
    sources: list
    paths: list
    pipeline: Pipeline
    flows: dict = field(default_factory=dict)  # flow id -> FlowProfile
    allow_zero_size: bool = False
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
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
        # order by (time, seq), with times as integers over their common denominator
        grid = math.lcm(*{e.time.denominator for e in events})
        self.events = sorted(
            events, key=lambda e: (e.time.numerator * (grid // e.time.denominator), e.seq)
        )

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
        final = {}  # flow -> kind of the last stage of its pipeline
        left = {}
        generated = []
        for e in self.events:
            if e.kind == GENERATED:
                generated.append((e.flow, e.unit))
                continue
            kind = final.get(e.flow)
            if kind is None:
                kind = final[e.flow] = self.final_kind(e.flow)
            if e.kind == kind:
                left[(e.flow, e.unit)] = e.time
        return {key: left[key] for key in generated if key in left}

    def delays(self) -> dict:
        """(flow, unit) -> end-to-end delay, for units that made it through."""
        gen = self.times(GENERATED)
        done = self.exit_times()
        grid = math.lcm(*{t.denominator for t in (*gen.values(), *done.values())})

        def ticks(t):
            return t.numerator * (grid // t.denominator)

        return {key: Fraction(ticks(t) - ticks(gen[key]), grid) for key, t in done.items()}

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
    sized = set()  # (flow, size) pairs checked so far; a failed check raises at once
    for u in scenario.sources:
        if u.key in seen:
            raise ScenarioError(f"duplicate source unit {u.flow}/{u.unit}")
        seen.add(u.key)
        if (u.flow, u.size) in sized:
            continue
        sized.add((u.flow, u.size))
        prof = scenario.flows.get(u.flow)
        if u.size == 0 and not scenario.allow_zero_size:
            raise ScenarioError(f"unit {u.flow}/{u.unit}: zero size not allowed here")
        if prof is None or u.size == 0:
            continue
        if prof.lmin is not None and u.size < prof.lmin:
            raise ScenarioError(f"unit {u.flow}/{u.unit}: size below flow minimum")
        if prof.lmax is not None and u.size > prof.lmax:
            raise ScenarioError(f"unit {u.flow}/{u.unit}: size above flow maximum")


def _is_drop(action) -> bool:
    return isinstance(action, str) and action == DROP


def _delay_grid(path: PathSpec) -> int:
    """Least common multiple of the denominators of the delays `path` may
    apply.  A literal that does not parse is left out: it fails where it is
    used, in unit order."""
    dens = set()
    for action in (*path.schedule.values(), path.default):
        if action is None or _is_drop(action):
            continue
        try:
            dens.add(parse_rational(action).denominator)
        except (TypeError, ValueError):
            continue
    return math.lcm(*dens)


def _tick_bounds(bounds: DelayInterval, grid: int):
    """[lo, hi] in ticks of 1/grid, rounded inwards; hi is None if unbounded."""
    lo = -(-bounds.lo.numerator * grid // bounds.lo.denominator)
    if is_unbounded(bounds.hi):
        return lo, None
    return lo, bounds.hi.numerator * grid // bounds.hi.denominator


def _branch_stage(paths: list, units: list, ticks: list, rank: list, grid: int, seq):
    """Apply each path's schedule; returns the sorted arrivals and the events.

    `units` are the scenario's sources, `ticks` their emission ticks and
    `rank` their places in emission order.  An arrival is (exit tick, path
    index, rank, branch event)."""
    events = []
    arrivals = []
    for pidx, path in enumerate(paths):
        lo, hi = _tick_bounds(path.bounds, grid)
        exit_by_rank = [None] * len(units)
        for j, u in enumerate(units):
            action = path.action_for(u.key)
            if _is_drop(action):
                if not path.lossy:
                    raise ScenarioError(f"path {path.name}: drop on a lossless path")
                continue
            delay = parse_rational(action)
            d = delay.numerator * (grid // delay.denominator)
            if d < lo or (hi is not None and d > hi):
                raise ScenarioError(
                    f"path {path.name}: delay {rational_str(delay)} for "
                    f"{u.flow}/{u.unit} outside declared bounds"
                )
            exit_t = ticks[j] + d
            ev = TraceEvent(
                Fraction(exit_t, grid), BRANCH_EXIT, u.flow, u.unit, u.size, path.name, next(seq)
            )
            events.append(ev)
            exit_by_rank[rank[j]] = exit_t
            arrivals.append((exit_t, pidx, rank[j], ev))
        if path.fifo:
            last = None
            for exit_t in exit_by_rank:
                if exit_t is None:
                    continue
                if last is not None and exit_t < last:
                    raise ScenarioError(f"path {path.name}: schedule violates FIFO order")
                last = exit_t
    arrivals.sort()  # (path, rank) is unique, so events are never compared
    return arrivals, events


def _pef_stage(arrivals: list, seq):
    """First replicate wins; later copies of the same unit are discarded.

    Returns (tick, rank) in exit order and the PEF events."""
    out = []
    events = []
    seen = set()
    for exit_t, _pidx, rank, ev in arrivals:
        if rank in seen:
            continue
        seen.add(rank)
        out.append((exit_t, rank))
        events.append(TraceEvent(ev.time, PEF_EXIT, ev.flow, ev.unit, ev.size, None, next(seq)))
    return out, events


def _pof_stage(inputs: list, spec: PofSpec, sources: list, timeout, grid: int, seq):
    """Re-sequence to source order with optional per-unit timeout.

    `inputs` are (tick, rank) in arrival order and `timeout` is in ticks or
    None.  Returns (tick, release index, rank) sorted by tick and index, and
    the POF events."""
    def member(u):
        return spec.flows is None or u.flow in spec.flows

    place = {}  # rank -> place among the re-sequenced units, in source order
    for rank, u in enumerate(sources):
        if member(u):
            place[rank] = len(place)

    queue = [(t, place[rank], rank) for t, rank in inputs if rank in place]
    bypass = [(t, rank) for t, rank in inputs if rank not in place]

    released = []  # (tick, release index, rank)
    buffer = {}  # place -> rank
    deadlines = []  # heap of (deadline tick, place)
    expected = 0

    def release(rank, now):
        released.append((now, len(released), rank))

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
            dl, pos = deadlines[0]
            if pos < expected or pos not in buffer:
                heappop(deadlines)
                continue
            fire = (dl, pos)
            break
        if fire is not None and (next_arrival is None or fire[0] < next_arrival):
            now, pos = fire
            heappop(deadlines)
            for p in sorted(k for k in buffer if k < pos):
                release(buffer.pop(p), now)
            release(buffer.pop(pos), now)
            expected = pos + 1
            drain(now)
            continue
        if i >= len(queue):
            raise ScenarioError(
                "units stuck in the re-sequencer: missing predecessor and no timeout"
            )
        now, pos, rank = queue[i]
        i += 1
        if pos < expected:
            release(rank, now)  # slot already passed over, forward as-is
            continue
        buffer[pos] = rank
        if timeout is not None:
            heappush(deadlines, (now + timeout, pos))
        drain(now)

    events = []
    for t, _idx, rank in released:
        u = sources[rank]
        events.append(
            TraceEvent(Fraction(t, grid), POF_EXIT, u.flow, u.unit, u.size, None, next(seq))
        )
    bypass.sort()
    n = len(released)
    released.extend((t, n + k, rank) for k, (t, rank) in enumerate(bypass))
    released.sort()
    return released, events


def _reg_grid(spec: RegSpec, units: list) -> int:
    """A denominator for the regulator's instants: every burst / rate and
    size / rate of its positive-rate buckets is an integer over it."""
    rates = [seg.rate for sigma in spec.shaping.values() for seg in sigma.segments if seg.rate]
    dens = {u.size.denominator for u in units if u.flow in spec.shaping}
    dens.update(seg.burst.denominator for sigma in spec.shaping.values() for seg in sigma.segments)
    return math.lcm(*dens) * math.lcm(*(r.numerator for r in rates))


class _BucketState:
    """One flow's positive-rate token buckets, each held as the tick it was
    last empty.

    A bucket of rate r and burst b that was empty at instant e holds
    min(b, r * (t - e)) at any later t, so `size` is there from e + size / r
    on, and taking it leaves the bucket as if empty at
    max(t - b / r, e) + size / r.  Every instant is then a sum of source and
    arrival instants and b / r and size / r terms, so it stays on the grid
    of `_reg_grid`.  Rate-0 buckets never refill; `_reg_stage` checks them."""

    __slots__ = ("rates", "spans", "marks")

    def __init__(self, curve: ConcaveCurve, start: int, grid: int):
        segments = [seg for seg in curve.segments if seg.rate]
        # size / r is size.numerator * scale // (size.denominator * r.numerator) ticks
        self.rates = [(seg.rate.denominator * grid, seg.rate.numerator) for seg in segments]
        self.spans = [
            seg.burst.numerator * seg.rate.denominator * grid
            // (seg.burst.denominator * seg.rate.numerator)
            for seg in segments
        ]
        self.marks = [start - span for span in self.spans]

    def release(self, size: Fraction, not_before: int) -> int:
        """Take `size` from every bucket at the earliest tick >= not_before
        where each holds that much, and return that tick."""
        num, den = size.numerator, size.denominator
        marks = self.marks
        fills = []
        t = not_before
        for (scale, rn), mark in zip(self.rates, marks):
            fill = num * scale // (den * rn)
            fills.append(fill)
            t = max(t, mark + fill)
        for i, (span, fill) in enumerate(zip(self.spans, fills)):
            marks[i] = max(t - span, marks[i]) + fill
        return t


def _reg_stage(inputs: list, spec: RegSpec, sources: list, start: int, grid: int, seq):
    """Token-bucket release of queued units; returns the REG events.

    `inputs` are (tick, index, rank) in arrival order."""
    shaped = [item for item in inputs if sources[item[2]].flow in spec.shaping]
    caps = {fid: min(seg.burst for seg in sigma.segments) for fid, sigma in spec.shaping.items()}
    for _t, _idx, rank in shaped:
        u = sources[rank]
        if u.size > caps[u.flow]:
            raise ScenarioError(
                f"unit {u.flow}/{u.unit}: larger than its shaping burst, can never release"
            )
    # a rate-0 bucket never delays a release; it starves once the flow's
    # released total exceeds its burst
    for fid, sigma in spec.shaping.items():
        for seg in sigma.segments:
            if seg.rate:
                continue
            flow_units = (sources[rank] for _t, _idx, rank in shaped)
            if sum(u.size for u in flow_units if u.flow == fid) > seg.burst:
                raise ScenarioError("regulator starves: bucket can never refill enough")

    states = {fid: _BucketState(sigma, start, grid) for fid, sigma in spec.shaping.items()}
    # per-flow mode keeps one queue per flow, interleaved mode a single one
    queues = {}
    for item in shaped:
        queue = sources[item[2]].flow if spec.mode == REG_PER_FLOW else None
        queues.setdefault(queue, []).append(item)
    exits = []  # (release tick, index, rank)
    for items in queues.values():
        prev = None
        for t, idx, rank in items:
            u = sources[rank]
            prev = states[u.flow].release(u.size, t if prev is None else max(t, prev))
            exits.append((prev, idx, rank))
    exits.sort()
    events = []
    for t, _idx, rank in exits:
        u = sources[rank]
        events.append(
            TraceEvent(Fraction(t, grid), REG_EXIT, u.flow, u.unit, u.size, None, next(seq))
        )
    return events


def run_scenario(scenario: Scenario) -> Trace:
    """Replay one trajectory and return the full stage-crossing trace."""
    _validate_sources(scenario)
    if not scenario.paths:
        raise ScenarioError("scenario needs at least one path")
    units = scenario.sources
    pipe = scenario.pipeline
    timeout = pipe.pof.timeout if pipe.pof is not None else None

    # one grid of 1/grid time units holds every source time, delay and
    # timeout, and every instant the regulators produce
    grid = math.lcm(
        *{u.time.denominator for u in units},
        *(_delay_grid(path) for path in scenario.paths),
        1 if timeout is None else timeout.denominator,
        1 if pipe.reg is None else _reg_grid(pipe.reg, units),
    )
    ticks = [u.time.numerator * (grid // u.time.denominator) for u in units]
    by_rank = sorted(range(len(units)), key=ticks.__getitem__)
    rank = [0] * len(units)
    for r, j in enumerate(by_rank):
        rank[j] = r
    sources = [units[j] for j in by_rank]
    start = ticks[by_rank[0]] if units else 0
    del by_rank

    seq = itertools.count(1)
    events = [
        TraceEvent(u.time, GENERATED, u.flow, u.unit, u.size, None, next(seq)) for u in sources
    ]
    arrivals, branch_events = _branch_stage(scenario.paths, units, ticks, rank, grid, seq)
    del ticks, rank
    events.extend(branch_events)

    if pipe.pef:
        merged, pef_events = _pef_stage(arrivals, seq)
        events.extend(pef_events)
    else:
        forwarded_twice = len(arrivals) != len({r for _t, _p, r, _ev in arrivals})
        if forwarded_twice and (pipe.pof or pipe.reg):
            raise ScenarioError("duplicate replicates reach the pipeline but no eliminator is placed")
        merged = [(t, r) for t, _p, r, _ev in arrivals]
    del arrivals

    if pipe.pof is not None:
        if timeout is not None:
            timeout = timeout.numerator * (grid // timeout.denominator)
        merged, pof_events = _pof_stage(merged, pipe.pof, sources, timeout, grid, seq)
        events.extend(pof_events)
    else:
        merged = [(t, idx, r) for idx, (t, r) in enumerate(merged)]

    if pipe.reg is not None:
        events.extend(_reg_stage(merged, pipe.reg, sources, start, grid, seq))

    return Trace(scenario, events)


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
                None
                if raw.get("arrival") is None
                else parse_curve(raw["arrival"], f"{path}.arrival")
            ),
            lmin=_rational(raw["lmin"], f"{path}.lmin") if "lmin" in raw else None,
            lmax=_rational(raw["lmax"], f"{path}.lmax") if "lmax" in raw else None,
        )
    sources = []
    units = set()
    entries = _typed(_required(doc, "sources", "sources"), list, "sources")
    for i, raw in enumerate(entries):
        path = f"sources[{i}]"
        _typed(raw, dict, path)
        fid = _typed(_required(raw, "flow", f"{path}.flow"), str, f"{path}.flow")
        unit = _typed(_required(raw, "unit", f"{path}.unit"), str, f"{path}.unit")
        # the unit parses and checks its time, then its size: a unit of size
        # 0 checks the time alone, so each fault is named at its own path
        at = f"{path}.time"
        time = _parsed(lambda t: SourceUnit(fid, unit, t, 0).time, _required(raw, "time", at), at)
        at = f"{path}.size"
        sources.append(
            _parsed(lambda z: SourceUnit(fid, unit, time, z), _required(raw, "size", at), at)
        )
        if sources[-1].key in units:
            raise SpecError(path, f"duplicate source unit {fid}/{unit}")
        units.add(sources[-1].key)
    paths = []
    entries = _typed(_required(doc, "paths", "paths"), list, "paths")
    for i, raw in enumerate(entries):
        path = f"paths[{i}]"
        _typed(raw, dict, path)
        name = _typed(_required(raw, "name", f"{path}.name"), str, f"{path}.name")
        bounds = _parsed(
            DelayInterval.from_json,
            _required(raw, "bounds", f"{path}.bounds"),
            f"{path}.bounds",
            "bad delay interval: ",
        )
        schedule = {}
        actions = _typed(raw.get("schedule", {}), dict, f"{path}.schedule")
        for key, action in actions.items():
            fid, slash, unit = key.partition("/")
            if not slash or (fid, unit) not in units:
                raise SpecError(f"{path}.schedule.{key}", "names no source unit (flow/unit)")
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
                lossy=_typed(raw.get("lossy", True), bool, f"{path}.lossy"),
                fifo=_typed(raw.get("fifo", True), bool, f"{path}.fifo"),
            )
        )
    if not paths:
        raise SpecError("paths", "scenario needs at least one path")
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
        if pof_flows is not None:  # absent or null: every flow
            pof_flows = frozenset(
                _typed(fid, str, f"pipeline.pof.flows[{i}]")
                for i, fid in enumerate(_typed(pof_flows, list, "pipeline.pof.flows"))
            )
            if not pof_flows:
                raise SpecError("pipeline.pof.flows", "re-sequencer needs at least one flow")
        pof = PofSpec(timeout=timeout, flows=pof_flows)
    reg = None
    if pdoc.get("reg") is not None:
        raw = _typed(pdoc["reg"], dict, "pipeline.reg")
        shaping = _required(raw, "shaping", "pipeline.reg.shaping")
        curves = {
            fid: parse_curve(c, f"pipeline.reg.shaping.{fid}")
            for fid, c in _typed(shaping, dict, "pipeline.reg.shaping").items()
        }
        reg = _parsed(
            lambda mode: RegSpec(mode, curves), raw.get("mode", REG_PER_FLOW), "pipeline.reg.mode"
        )
    return Scenario(
        name=_typed(doc.get("name", "scenario"), str, "name"),
        sources=sources,
        paths=paths,
        pipeline=Pipeline(
            pef=_typed(pdoc.get("pef", True), bool, "pipeline.pef"), pof=pof, reg=reg
        ),
        flows=flows,
        allow_zero_size=_typed(doc.get("allow_zero_size", False), bool, "allow_zero_size"),
        meta=_typed(doc.get("meta", {}), dict, "meta"),
    )


def load_scenario(source) -> Scenario:
    """Scenario from a dict, an open file, or a filesystem path."""
    return _read_document(source, scenario_from_json)
