"""Packet-level trajectory engine for replicated paths feeding PEF/POF/REG stages.

A scenario fixes everything: the source emissions, the per-path fate of every
replicate (a concrete delay inside the declared bounds, or a drop), and the
function pipeline at the merge point.  The engine replays that trajectory with
exact timestamps and emits a trace with one event per stage crossing, so
measurements (delays, reordering, compliance) are exact too.

Time base: every source time, branch delay and re-sequencer timeout is a
rational, so each is an integer number of ticks of 1/grid, where grid is the
least common multiple of their denominators.  The stages add, compare and
sort those integers, and each `TraceEvent` stores its instant as that tick
with the grid beside it.  `Trace` orders its events and takes delays on the
ticks too.  Fractions appear only where a value leaves the engine: the
`time` property of an event, and the times and delays that `Trace` returns.
The regulators run on the same ticks.  A token bucket refilling at rate r
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

Shared values: many units share one value (a path's delay object, a flow's
size, a shaping curve), and the work on a value is done once per run.  Each
action object of a path is parsed, put on the grid and checked against the
path's bounds at the first unit it applies to; actions are told apart by
identity, and each (flow, size) pair by the size's integer ratio, so no
Fraction is hashed per unit.  A (flow, size) pair is checked against the
flow's profile and shaping burst, and its token-bucket fills worked out,
once.  The sources are sorted into emission order once, units emitted at
one instant in their listed order; their checks and each path walk them in
that order, so each fault there is raised at the first unit that has it.
Events are built as `tuple.__new__(TraceEvent, fields)`, without the
namedtuple's Python-level constructor, and `gen_adversarial_ir` builds its
units through `SourceUnit._unchecked` after checking the earliest one.

Garbage collection: the functions that build one object per unit or per
event (`run_scenario`, `Trace.delays`, `gen_adversarial_ir` and the measures
`check_compliance` and `measure_reordering`) pause CPython's cyclic garbage
collector while they run (`_no_gc`).  Their sources, events and Fractions
hold no reference cycles, so a collection there frees nothing, yet tens of
thousands of new tracked objects set off full collections that walk every
live object.  Reference counting still frees everything as usual.  The
collector is process-wide: while one thread runs a guarded function, no
thread of the process collects cycles.
"""

import csv
import functools
import gc
import io
import math
from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush
from operator import itemgetter

from ..minplus import (
    ConcaveCurve,
    is_unbounded,
    parse_rational,
    rational_str,
)
from ..record import FrozenRecord, Record
from ..topology import (
    REG_INTERLEAVED,
    REG_PER_FLOW,
    DelayInterval,
    SpecError,
    _known,
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


def _no_gc(fn):
    """`fn` with the cyclic garbage collector paused while it runs; the
    collector is enabled again on return only if it was enabled at entry."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return guarded


class ScenarioError(ValueError):
    """A scenario is inconsistent with its own declarations."""


class SourceUnit(FrozenRecord):
    __slots__ = _fields = ("flow", "unit", "time", "size")

    def __init__(self, flow: str, unit: str, time: Fraction, size: Fraction):
        time, size = parse_rational(time), parse_rational(size)
        if time.numerator < 0:
            raise ScenarioError(f"unit {flow}/{unit}: negative emission time")
        if size.numerator < 0:
            raise ScenarioError(f"unit {flow}/{unit}: negative size")
        self._set_fields(flow, unit, time, size)

    @classmethod
    def _unchecked(cls, flow: str, unit: str, time: Fraction, size: Fraction) -> "SourceUnit":
        """The unit of a time and a size already parsed and nonnegative,
        built without the checks of the public constructor."""
        u = object.__new__(cls)
        object.__setattr__(u, "flow", flow)
        object.__setattr__(u, "unit", unit)
        object.__setattr__(u, "time", time)
        object.__setattr__(u, "size", size)
        return u

    @property
    def key(self):
        return (self.flow, self.unit)


class PathSpec(FrozenRecord):
    """One replicated branch: declared delay bounds plus the fate of each unit.

    ``schedule`` maps (flow, unit) to a delay or to DROP; ``default`` applies
    to units without an explicit entry (None means every unit needs one).
    """

    __slots__ = _fields = ("name", "bounds", "schedule", "default", "lossy", "fifo")

    def __init__(self, name: str, bounds: DelayInterval, schedule: dict,
                 default: Fraction | str | None = None, lossy: bool = True, fifo: bool = True):
        self._set_fields(name, bounds, schedule, default, lossy, fifo)

    def action_for(self, key):
        if key in self.schedule:
            return self.schedule[key]
        if self.default is None:
            raise ScenarioError(f"path {self.name}: no action for unit {key[0]}/{key[1]}")
        return self.default


class PofSpec(FrozenRecord):
    __slots__ = _fields = ("timeout", "flows")

    def __init__(self, timeout: Fraction | None = None, flows: frozenset | None = None):
        # flows None = every flow in the scenario
        if timeout is not None:
            timeout = parse_rational(timeout)
            if timeout < 0:
                raise ScenarioError("re-sequencer timeout must be >= 0")
        if flows is not None:
            flows = frozenset(flows)
        self._set_fields(timeout, flows)


class RegSpec(FrozenRecord):
    __slots__ = _fields = ("mode", "shaping")

    def __init__(self, mode: str, shaping: dict):  # flow id -> ConcaveCurve
        if mode not in (REG_PER_FLOW, REG_INTERLEAVED):
            raise ScenarioError(f"unknown regulator mode {mode!r}")
        for fid, sigma in shaping.items():
            if not isinstance(sigma, ConcaveCurve):
                raise ScenarioError(f"regulator shaping for {fid} must be a curve")
        self._set_fields(mode, dict(shaping))


class Pipeline(FrozenRecord):
    __slots__ = _fields = ("pef", "pof", "reg")

    def __init__(self, pef: bool = True, pof: PofSpec | None = None, reg: RegSpec | None = None):
        self._set_fields(pef, pof, reg)


class FlowProfile(FrozenRecord):
    """A flow's declared arrival curve and unit sizes, each None if not
    given; given sizes pass the network loader's checks (lmax >= lmin > 0),
    and an lmax given alone must be > 0."""

    __slots__ = _fields = ("arrival", "lmin", "lmax")

    def __init__(self, arrival: ConcaveCurve | None = None, lmin: Fraction | None = None,
                 lmax: Fraction | None = None):
        if lmin is not None:
            lmin = parse_rational(lmin)
        if lmax is not None:
            lmax = parse_rational(lmax)
        if lmin is not None and lmin <= 0:
            raise ScenarioError("minimum data unit size must be > 0")
        if None not in (lmin, lmax) and lmax < lmin:
            raise ScenarioError("lmax must be >= lmin")
        if lmax is not None and lmax <= 0:
            raise ScenarioError("maximum data unit size must be > 0")
        self._set_fields(arrival, lmin, lmax)


class Scenario(Record):
    __slots__ = _fields = ("name", "sources", "paths", "pipeline", "flows", "allow_zero_size",
                           "meta")

    def __init__(self, name: str, sources: list, paths: list, pipeline: Pipeline,
                 flows: dict | None = None, allow_zero_size: bool = False,
                 meta: dict | None = None):
        # flows maps a flow id to its FlowProfile; a flows or meta of None is a new {}
        self._set_fields(name, sources, paths, pipeline, {} if flows is None else flows,
                         allow_zero_size, {} if meta is None else meta)


class TraceEvent(namedtuple("TraceEvent", "tick grid kind flow unit size branch",
                            defaults=(None,))):
    """One stage crossing.  The instant is `tick` ticks of 1/`grid` time
    units, the grid of the run that made the event; `time` is the same
    instant as a Fraction."""

    __slots__ = ()

    @property
    def time(self) -> Fraction:
        return Fraction(self.tick, self.grid)


# the stages build each event as _tuple_new(TraceEvent, (all seven fields)):
# the namedtuple's constructor is a Python function that costs as much again
_tuple_new = tuple.__new__


class Trace:
    """Ordered event record of one run.

    `events` must all be on the grid `grid`, listed in the order the stages
    made them.  They are sorted in place, stably by tick, so events at one
    instant keep that order.  Every instant `Trace` compares or subtracts is
    a tick; the times and delays it returns are Fractions."""

    def __init__(self, scenario: Scenario, events: list, grid: int):
        self.scenario = scenario
        self.grid = grid
        events.sort(key=itemgetter(0))
        self.events = events

    def of_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def final_kind(self, flow: str) -> str:
        pipe = self.scenario.pipeline
        if pipe.reg is not None and flow in pipe.reg.shaping:
            return REG_EXIT
        if pipe.pof is not None and (pipe.pof.flows is None or flow in pipe.pof.flows):
            return POF_EXIT
        if pipe.pef:
            return PEF_EXIT
        return BRANCH_EXIT

    def _walk(self):
        """One pass over the events: (flow, unit) -> generation tick, and
        (flow, unit) -> tick the unit left the last stage of its pipeline,
        both in generation order; error on a duplicate generation."""
        final = {}  # flow -> kind of the last stage of its pipeline
        gen = {}
        left = {}
        for tick, _grid, kind, flow, unit, _size, _branch in self.events:
            if kind == GENERATED:
                key = (flow, unit)
                if key in gen:
                    raise ScenarioError(f"duplicate {GENERATED} event for {flow}/{unit}")
                gen[key] = tick
                continue
            last = final.get(flow)
            if last is None:
                last = final[flow] = self.final_kind(flow)
            if kind == last:
                left[(flow, unit)] = tick
        return gen, {key: left[key] for key in gen if key in left}

    @_no_gc
    def delays(self) -> dict:
        """(flow, unit) -> end-to-end delay, for units that made it through."""
        gen, done = self._walk()
        return {key: Fraction(t - gen[key], self.grid) for key, t in done.items()}

    def lost_units(self) -> list:
        gen, done = self._walk()
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


def _validate_sources(sources: list, scenario: Scenario):
    seen = set()
    # (flow, size as an integer ratio) checked so far, a failed check raising
    # at once; no Fraction is hashed, as its hash costs a modular inverse
    sized = set()
    for u in sources:
        key = (u.flow, u.unit)
        if key in seen:
            raise ScenarioError(f"duplicate source unit {u.flow}/{u.unit}")
        seen.add(key)
        key = (u.flow, u.size.as_integer_ratio())
        if key in sized:
            continue
        sized.add(key)
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


def _path_grid(path: PathSpec) -> int:
    """Least common multiple of the denominators of the delays `path` may
    apply, each action object parsed once.  A literal that does not parse is
    left out: it fails where it is used, in unit order."""
    actions = path.schedule.values()
    distinct = dict(zip(map(id, actions), actions))  # told apart without hashing a Fraction
    dens = set()
    for action in (*distinct.values(), path.default):
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


def _branch_stage(paths: list, sources: list, ticks: list, grid: int):
    """Apply each path's schedule; returns the sorted arrivals and the events.

    `sources` are the scenario's units in emission order and `ticks` their
    emission ticks, so a unit's rank is its index.  An arrival is (exit
    tick, path index, rank).

    Each action object of a path is parsed, put on the grid and checked
    against the path's bounds once, at the first unit it applies to, and a
    FIFO path checks each exit against the last, so each path's first fault
    in emission order is raised."""
    events = []
    arrivals = []
    for pidx, path in enumerate(paths):
        name = path.name
        lo, hi = _tick_bounds(path.bounds, grid)
        scheduled = path.schedule.get
        # id(action) -> its delay in ticks, or DROP; the path holds every
        # action, so no id is reused during the run
        decided = {}
        fifo, last = path.fifo, None  # last: the exit tick of the last unit forwarded
        for rank, u in enumerate(sources):
            flow, unit = u.flow, u.unit
            action = scheduled((flow, unit))
            if action is None:  # the default, or the error of a unit without an action
                action = path.action_for((flow, unit))
            d = decided.get(id(action))
            if d is None:
                if _is_drop(action):
                    if not path.lossy:
                        raise ScenarioError(f"path {name}: drop on a lossless path")
                    d = DROP
                else:
                    delay = parse_rational(action)
                    d = delay.numerator * (grid // delay.denominator)
                    if d < lo or (hi is not None and d > hi):
                        raise ScenarioError(
                            f"path {name}: delay {rational_str(delay)} for "
                            f"{flow}/{unit} outside declared bounds"
                        )
                decided[id(action)] = d
            if d is DROP:
                continue
            exit_t = ticks[rank] + d
            if fifo:
                if last is not None and exit_t < last:
                    raise ScenarioError(f"path {name}: schedule violates FIFO order")
                last = exit_t
            events.append(_tuple_new(TraceEvent, (exit_t, grid, BRANCH_EXIT, flow, unit, u.size, name)))
            arrivals.append((exit_t, pidx, rank))
    arrivals.sort()
    return arrivals, events


def _pef_stage(arrivals: list, sources: list, grid: int):
    """First replicate wins; later copies of the same unit are discarded.

    Returns (tick, rank) in exit order and the PEF events."""
    out = []
    events = []
    seen = set()
    for exit_t, _pidx, rank in arrivals:
        if rank in seen:
            continue
        seen.add(rank)
        out.append((exit_t, rank))
        u = sources[rank]
        events.append(_tuple_new(TraceEvent, (exit_t, grid, PEF_EXIT, u.flow, u.unit, u.size, None)))
    return out, events


def _pof_stage(inputs: list, spec: PofSpec, sources: list, timeout, grid: int):
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
        events.append(_tuple_new(TraceEvent, (t, grid, POF_EXIT, u.flow, u.unit, u.size, None)))
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
        self.rates = [(seg.rate.denominator * grid, seg.rate.numerator) for seg in segments]
        self.spans = [
            seg.burst.numerator * seg.rate.denominator * grid
            // (seg.burst.denominator * seg.rate.numerator)
            for seg in segments
        ]
        self.marks = [start - span for span in self.spans]

    def draws(self, num: int, den: int) -> tuple:
        """What a size of num / den draws from the buckets: for each, its
        index, b / r and size / r, the last two in ticks."""
        # size / r is size.numerator * scale // (size.denominator * r.numerator) ticks
        return tuple(
            (i, span, num * scale // (den * rn))
            for i, (span, (scale, rn)) in enumerate(zip(self.spans, self.rates))
        )

    def release(self, draws: tuple, not_before: int) -> int:
        """Take a size of `draws` (see `draws`) from every bucket at the
        earliest tick >= not_before where each holds that much, and return
        that tick."""
        marks = self.marks
        t = not_before
        for i, _span, fill in draws:
            if marks[i] + fill > t:
                t = marks[i] + fill
        for i, span, fill in draws:
            marks[i] = max(t - span, marks[i]) + fill
        return t


def _reg_stage(inputs: list, spec: RegSpec, sources: list, start: int, grid: int):
    """Token-bucket release of queued units; returns the REG events.

    `inputs` are (tick, index, rank) in arrival order."""
    shaped = [item for item in inputs if sources[item[2]].flow in spec.shaping]
    caps = {fid: sigma.min_burst for fid, sigma in spec.shaping.items()}
    sized = set()  # as in `_validate_sources`
    for _t, _idx, rank in shaped:
        u = sources[rank]
        key = (u.flow, u.size.as_integer_ratio())
        if key in sized:
            continue
        sized.add(key)
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
    # each checked (flow, size) -> its flow's buckets and what the size draws
    # from them, worked out once
    draws = {}
    for flow, ratio in sized:
        draws[(flow, ratio)] = states[flow], states[flow].draws(*ratio)
    # per-flow mode keeps one queue per flow, interleaved mode a single one
    if spec.mode == REG_PER_FLOW:
        queues = {}
        for item in shaped:
            queues.setdefault(sources[item[2]].flow, []).append(item)
        queues = queues.values()
    else:
        queues = [shaped]
    exits = []  # (release tick, index, rank)
    for items in queues:
        prev = None
        for t, idx, rank in items:
            u = sources[rank]
            state, drawn = draws[(u.flow, u.size.as_integer_ratio())]
            prev = state.release(drawn, t if prev is None else max(t, prev))
            exits.append((prev, idx, rank))
    exits.sort()
    events = []
    for t, _idx, rank in exits:
        u = sources[rank]
        events.append(_tuple_new(TraceEvent, (t, grid, REG_EXIT, u.flow, u.unit, u.size, None)))
    return events


@_no_gc
def run_scenario(scenario: Scenario) -> Trace:
    """Replay one trajectory and return the full stage-crossing trace."""
    units = scenario.sources
    pipe = scenario.pipeline
    timeout = pipe.pof.timeout if pipe.pof is not None else None

    # one grid of 1/grid time units holds every source time, delay and
    # timeout, and every instant the regulators produce
    grid = math.lcm(
        *{u.time.denominator for u in units},
        *(_path_grid(path) for path in scenario.paths),
        1 if timeout is None else timeout.denominator,
        1 if pipe.reg is None else _reg_grid(pipe.reg, units),
    )
    ticks = [u.time.numerator * (grid // u.time.denominator) for u in units]
    # emission order, once: each stage walks the units in it
    order = sorted(range(len(units)), key=ticks.__getitem__)
    sources, ticks = [units[j] for j in order], [ticks[j] for j in order]
    start = ticks[0] if ticks else 0
    _validate_sources(sources, scenario)
    if not scenario.paths:
        raise ScenarioError("scenario needs at least one path")

    events = [
        _tuple_new(TraceEvent, (t, grid, GENERATED, u.flow, u.unit, u.size, None))
        for t, u in zip(ticks, sources)
    ]
    arrivals, branch_events = _branch_stage(scenario.paths, sources, ticks, grid)
    del ticks
    events.extend(branch_events)

    if pipe.pef:
        merged, pef_events = _pef_stage(arrivals, sources, grid)
        events.extend(pef_events)
    else:
        forwarded_twice = len(arrivals) != len({r for _t, _p, r in arrivals})
        if forwarded_twice and (pipe.pof or pipe.reg):
            raise ScenarioError("duplicate replicates reach the pipeline but no eliminator is placed")
        merged = [(t, r) for t, _p, r in arrivals]
    del arrivals

    if pipe.pof is not None:
        if timeout is not None:
            timeout = timeout.numerator * (grid // timeout.denominator)
        merged, pof_events = _pof_stage(merged, pipe.pof, sources, timeout, grid)
        events.extend(pof_events)
    else:
        merged = [(t, idx, r) for idx, (t, r) in enumerate(merged)]

    if pipe.reg is not None:
        events.extend(_reg_stage(merged, pipe.reg, sources, start, grid))

    return Trace(scenario, events, grid)


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
        profile = FlowProfile(
            None if raw.get("arrival") is None else parse_curve(raw["arrival"], f"{path}.arrival")
        )
        # lmin, then lmax against it, each fault named at its own path
        for key in ("lmin", "lmax"):
            if key in raw:
                profile = _parsed(
                    lambda v: profile._replace(**{key: v}), raw[key], f"{path}.{key}"
                )
        flows[fid] = profile
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
    emitted = {fid for fid, _unit in units}  # the only flows a profile or a stage may name
    for fid in flows:
        _known(fid, emitted, f"flows.{fid}", "flow")
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
            names = _typed(pof_flows, list, "pipeline.pof.flows")
            pof_flows = set()
            for i, fid in enumerate(names):
                at = f"pipeline.pof.flows[{i}]"
                pof_flows.add(_known(_typed(fid, str, at), emitted, at, "flow"))
            if not pof_flows:
                raise SpecError("pipeline.pof.flows", "re-sequencer needs at least one flow")
        pof = PofSpec(timeout=timeout, flows=pof_flows)
    reg = None
    if pdoc.get("reg") is not None:
        raw = _typed(pdoc["reg"], dict, "pipeline.reg")
        shaping = _required(raw, "shaping", "pipeline.reg.shaping")
        curves = {}
        for fid, c in _typed(shaping, dict, "pipeline.reg.shaping").items():
            at = f"pipeline.reg.shaping.{fid}"
            curves[fid] = parse_curve(c, at)
            _known(fid, emitted, at, "flow")
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
