"""Independent brute-force oracles used by the test suite.

These mostly avoid the library's own algorithms: convolution is
evaluated as an infimum over explicit split points, deviations as maxima
over dense candidate grids, dominators by full path enumeration, trace
compliance and reordering by checking every pair of units, and the
regulators' ordering question by following every path.  The eliminator
output curve of identical parallel branches has a closed form built from the
min-plus primitives, which the general form must reproduce.  The analyzer's
SCC sweep order (Kosaraju) is checked against Tarjan's algorithm, and its
schedule (each component on its own) against the global loop that re-runs
every vertex on every sweep.  That loop solves nothing exactly.  It keeps
the grid algorithm that the analyzer ran before every cyclic component was
solved exactly: bursts rounded up onto a fixed grid, and port delays too
once the curves stall.  The analyzer's bounds may only
fall below that reference.  With its rounding off, the loop is the exact
sweep that a run with no accepted solve must match.  The exact solve's
test of the leading principal minors, by integer elimination without row
exchanges, is checked against Gauss-Jordan elimination in `Fraction` that
builds the whole inverse and reads its signs, and the model comparison,
whose intuitive analysis starts from the tight one, against two independent
analyses.  The end-to-end composition, which walks only each destination's
anchor chain, is checked against the walk over every vertex of the flow in
its order.  The simulator, which
keeps every instant as an integer tick, is checked against a replay that
keeps every instant as a `Fraction` and orders and subtracts them on a grid
of their denominators.
"""

import itertools
import math
from fractions import Fraction
from heapq import heappop, heappush

from redcalc.minplus import (
    UNBOUNDED,
    Affine,
    ConcaveCurve,
    add,
    convolve,
    deconvolve_delay,
    is_unbounded,
)
from redcalc.tfa import (
    CONVERGED,
    DEFAULT_ITER_CAP,
    DIVERGED,
    ITERATION_CAP,
    MODEL_INTUITIVE,
    MODEL_TIGHT,
    _Analyzer,
    analyze,
)
from redcalc.sim import (
    BRANCH_EXIT,
    DROP,
    GENERATED,
    PEF_EXIT,
    POF_EXIT,
    REG_EXIT,
    Scenario,
)
from redcalc.topology import POF, REG, REG_PER_FLOW, DelayInterval, NetworkSpec

from netfixtures import result_for

# the grid of the reference iteration: bursts, and stalled port delays, are
# rounded up to multiples of BURST_QUANTUM
BURST_QUANTUM = Fraction(1, 2**20)
# sweeps in a row that change port delays but no curve, after which every
# cyclic component's port delays go on the grid too
STALL_PASSES = 5
# the reference's stop rule on a sweep that climbs without bound: an output
# curve whose burst exceeds it is cut off, and so is the run
BURST_CAP = 10**9


def curve_value(curve: ConcaveCurve, t: Fraction) -> Fraction:
    if t == 0:
        return Fraction(0)
    return min(s.rate * t + s.burst for s in curve.segments)


def sum_by_segment_products(*curves: ConcaveCurve) -> ConcaveCurve:
    """Pointwise sum of concave curves, built through the public constructor.

    A sum of minima is the minimum of all the sums that take one term from
    each minimum, so the sum is the curve of every (summed rate, summed
    burst) over one segment per operand, normalized.
    """
    return ConcaveCurve(
        [
            (sum(s.rate for s in combo), sum(s.burst for s in combo))
            for combo in itertools.product(*(c.segments for c in curves))
        ]
    )


def convolution_value(a: ConcaveCurve, b: ConcaveCurve, t: Fraction, grid: int = 64):
    """inf over s in [0, t] of a(s) + b(t - s), on an exhaustive candidate set.

    For piecewise-linear operands the infimum is attained either at an
    endpoint or where one operand changes slope, so the candidate set below
    makes this exact; the uniform grid is kept as an extra safety net.
    """
    candidates = {Fraction(0), t}
    for x in a.breakpoints():
        if 0 <= x <= t:
            candidates.add(x)
    for x in b.breakpoints():
        if 0 <= x <= t:
            candidates.add(t - x)
    for k in range(grid + 1):
        candidates.add(t * k / grid)
    return min(curve_value(a, s) + curve_value(b, t - s) for s in candidates)


def rate_latency_delay(alpha: ConcaveCurve, rate: Fraction, latency: Fraction, grid):
    """max over candidate t of the delay needed against R(t-T)+, exact at
    breakpoints; grid entries are extra candidates."""
    candidates = set(alpha.breakpoints()) | set(grid)
    worst = Fraction(0)
    for t in candidates:
        if t < 0:
            continue
        need = latency + (curve_value(alpha, t) - rate * t) / rate
        worst = max(worst, need)
    # t -> 0+ carries the initial burst
    worst = max(worst, latency + alpha.min_burst / rate)
    return worst


def curve_service_delay(alpha: ConcaveCurve, beta: ConcaveCurve, grid):
    """max over candidate t > 0 of inf{d >= 0 : alpha(t) <= beta(t + d)},
    for a concave service curve beta (rate-0 caps included); None when some
    alpha(t) exceeds every value of beta.

    beta(s) >= y holds exactly when every segment of beta reaches y by s.
    The wait is linear in t between alpha's breakpoints and the times where
    alpha reaches the height of one of beta's, so those candidates and
    t -> 0+ make this exact for a bounded wait; grid entries are extra
    candidates."""

    def first_reach(y):
        s = Fraction(0)
        for seg in beta.segments:
            if seg.rate == 0:
                if seg.burst < y:
                    return None
            else:
                s = max(s, (y - seg.burst) / seg.rate)
        return s

    heights = {curve_value(beta, x) for x in beta.breakpoints() if x > 0}
    candidates = set(alpha.breakpoints()) | set(grid)
    for seg in alpha.segments:
        if seg.rate > 0:
            candidates |= {(y - seg.burst) / seg.rate for y in heights}
    worst = first_reach(alpha.min_burst)  # t -> 0+
    for t in candidates:
        if worst is None or t <= 0:
            continue
        reach = first_reach(curve_value(alpha, t))
        worst = None if reach is None else max(worst, reach - t)
    return worst


def pef_output_curve_parallel(alpha: ConcaveCurve, branches) -> ConcaveCurve:
    """Closed form of the eliminator output curve for N parallel branches
    fed by the same curve alpha, built from the min-plus primitives.

    Combines the per-branch jitter curves (summed: a unit may exit once per
    branch) with alpha spread by the overall spread max D_i - min d_j (each
    data unit exits at most once thanks to elimination).
    """
    if not branches:
        raise ValueError("need at least one branch")
    if any(is_unbounded(bounds.hi) for bounds in branches):
        raise ValueError("cannot propagate a curve through an unbounded delay")
    shifted = [deconvolve_delay(alpha, bounds.width) for bounds in branches]
    total = shifted[0] if len(shifted) == 1 else add(*shifted)
    spread = max(b.hi for b in branches) - min(b.lo for b in branches)
    return convolve(total, deconvolve_delay(alpha, spread))


def all_paths(edges, source, target):
    """Every simple path from source to target in a DAG, as vertex lists."""
    children = {}
    for u, v in edges:
        children.setdefault(u, []).append(v)
    out = []

    def walk(v, acc):
        if v == target:
            out.append(acc + [v])
            return
        for w in children.get(v, ()):  # DAG: no visited set needed
            walk(w, acc + [v])

    walk(source, [])
    return out


def dominators_by_paths(edges, source, target):
    """Vertices present on every source -> target path (path enumeration)."""
    paths = all_paths(edges, source, target)
    if not paths:
        return set()
    common = set(paths[0])
    for p in paths[1:]:
        common &= set(p)
    return common


def compliance_violations(events, curve: ConcaveCurve):
    """All (i, j) index pairs of `events` = [(time, size), ...] whose window
    carries more data than curve allows.  Quadratic on purpose."""
    bad = []
    n = len(events)
    for i in range(n):
        total = Fraction(0)
        for j in range(i, n):
            total += events[j][1]
            window = events[j][0] - events[i][0]
            if total > curve.envelope(window):
                bad.append((i, j))
    return bad


def reordering_by_pairs(units):
    """(RTO, RBO) of `units` = [(rank, time, size), ...], straight from the
    definitions over every pair of units.  Quadratic on purpose.

    The reordering time offset is the largest t_i - t_j over pairs where
    unit j has a later rank than unit i yet arrived earlier; the reordering
    byte offset is the largest total size of later-ranked units that
    arrived strictly before some unit.  Both are 0 without reordering.
    """
    rto = Fraction(0)
    rbo = Fraction(0)
    for rank_i, t_i, _size_i in units:
        ahead = Fraction(0)
        for rank_j, t_j, size_j in units:
            if rank_j > rank_i and t_j < t_i:
                rto = max(rto, Fraction(t_i) - Fraction(t_j))
                ahead += size_j
        rbo = max(rbo, ahead)
    return rto, rbo


def disordered_by_paths(edges, a, v, disorder, restore):
    """Can units reach v out of source order, on some a -> v path?

    Along one path, units leave a vertex of `disorder` (EP, or hosting an
    eliminator) out of order, and a vertex of `restore` (a re-sequencer,
    which runs after any eliminator at the same vertex) puts them back in
    order; a's own output counts as ordered.  Every path is enumerated.
    """
    for path in all_paths(edges, a, v):
        ordered = True
        for x in path[1:]:
            if x in restore:
                ordered = True
            elif x in disorder:
                ordered = False
        if not ordered:
            return True
    return False


def _union_graph(network: NetworkSpec) -> dict:
    children = {v: set() for v in network.vertices}
    for f in network.flows.values():
        for u, v in f.edges:
            children[u].add(v)
    return children


def tarjan_sweep_order(network: NetworkSpec):
    """Vertices in SCC-condensation topological order, plus an acyclic flag."""
    children = _union_graph(network)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]

    def strongconnect(root):
        # iterative Tarjan, the union graph can be deep
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(children[root])))]
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(children[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)

    for v in sorted(network.vertices):
        if v not in index:
            strongconnect(v)
    comps.reverse()  # Tarjan emits components in reverse topological order
    order = [v for comp in comps for v in sorted(comp)]
    acyclic = all(len(c) == 1 for c in comps) and all(
        v not in children[v] for v in network.vertices
    )
    return order, acyclic


def _round_up(x: Fraction) -> Fraction:
    return -(-x // BURST_QUANTUM) * BURST_QUANTUM


class _GridAnalyzer(_Analyzer):
    """The analyzer with the grid and the stop rule of the reference
    iteration: on a network with a cycle and `grid` on, every output curve's
    bursts are rounded up before BURST_CAP is checked, and so are the upper
    port delays of the vertices in `delay_grid`.  Rounding up keeps every
    state a bound.  An output curve beyond BURST_CAP makes the run Diverged,
    grid or not."""

    def __init__(self, network, model, lossless, grid):
        super().__init__(network, model, lossless)
        self.grid = grid and any(len(comp) > 1 for comp in self.components)
        self.delay_grid = set()

    def _output(self, cur, vdel):
        out = super()._output(cur, vdel)
        if self.grid and out is not None:
            out = ConcaveCurve((s.rate, _round_up(s.burst)) for s in out.segments)
        return self._capped(out)

    def _capped(self, curve):
        if curve is not None and curve.min_burst > BURST_CAP:
            if self.status == CONVERGED:
                self.status = DIVERGED
                self.notes.append("burst cap exceeded during iteration")
            return None
        return curve

    def _port_delay(self, v, post):
        vdel = super()._port_delay(v, post)
        if v in self.delay_grid and not is_unbounded(vdel.hi):
            return DelayInterval(vdel.lo, _round_up(vdel.hi))
        return vdel


def full_sweep_analyze(network, model=MODEL_TIGHT, lossless=False, iter_cap=None, *, grid=True):
    """`tfa.analyze` by a global Gauss-Seidel loop: every vertex, in sweep
    order, on every sweep, until a sweep changes nothing, a burst exceeds
    BURST_CAP or `iter_cap` sweeps have run; a cut-off run sweeps once more.
    The stop rules apply to the whole network, so `iterations` counts its
    sweeps.  No port delay is solved exactly.  With `grid` (the default) a
    network with a cycle runs on the burst grid, and after STALL_PASSES
    sweeps that change no curve every cyclic component's port delays go on
    it too; without it every value is exact.  A cut-off run holds no bound
    on any cycle: as the analyzer does with a cut-off component, every
    vertex on a cycle restarts from no bound (`_unbound`) before the last
    sweep."""
    iter_cap = DEFAULT_ITER_CAP if iter_cap is None else iter_cap
    an = _GridAnalyzer(network, model, lossless, grid)
    order = [v for comp in an.components for v in comp]

    def state(v):
        return an.vertex_delays.get(v), *(an.curves.get((fid, v)) for fid in an._crossing[v])

    def sweep():
        # Gauss-Seidel: each vertex reads the outputs of those before it;
        # True when one changes its port delay or an output curve, after
        # which the rest are not compared
        changed = False
        for v in order:
            if changed:
                an._process_vertex(v)
                continue
            before = state(v)
            an._process_vertex(v)
            changed = state(v) != before
        return changed

    if all(len(comp) == 1 for comp in an.components):  # feed-forward
        sweep()
        an.iterations = 1
    else:
        stalled = 0
        for i in range(1, iter_cap + 1):
            curves = dict(an.curves)
            changed = sweep()
            an.iterations = i
            if an.status == DIVERGED or not changed:
                break
            # each curve is stored once per sweep, so a sweep that changes no
            # curve leaves them all equal
            stalled = stalled + 1 if an.curves == curves else 0
            if stalled == STALL_PASSES and an.grid:
                for comp in an.components:
                    if len(comp) > 1 and comp[0] not in an.delay_grid:
                        an.delay_grid.update(comp)
                        an.notes.append(
                            f"port delays at {', '.join(comp)} rounded up onto the burst grid "
                            f"after {STALL_PASSES} passes that changed no curve"
                        )
        else:
            an.status = ITERATION_CAP
            an.notes.append(f"no fixed point within {iter_cap} sweeps")
    if an.status != CONVERGED:
        for comp in an.components:
            for v in comp if len(comp) > 1 else ():
                an._unbound(v)
        sweep()
    return an.report()


def least_fixed_point_by_fractions(forms: list, point: list):
    """`tfa._least_fixed_point` by Gauss-Jordan elimination in `Fraction` on
    `[I - A | I | b]`, each pivot row normalized to 1: the solution of
    `W = A W + b`, its forms written at `point`, or None unless `I - A` is
    invertible with a nonnegative inverse.  For `A >= 0` that holds exactly
    when every leading principal minor of `I - A` is positive, the test
    that `tfa._least_fixed_point` makes instead of building the inverse."""
    n = len(point)
    rows = []
    for i, w in enumerate(forms):
        coeffs = w.coeffs if type(w) is Affine else {}
        value = w.value if type(w) is Affine else w
        row = [Fraction(0)] * (2 * n) + [value - sum(c * point[j] for j, c in coeffs.items())]
        for j, c in coeffs.items():
            row[j] = -c
        row[i] += 1
        row[n + i] = Fraction(1)
        rows.append(row)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = 1 / Fraction(rows[col][col])
        top = rows[col] = [x * scale for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
    if any(x < 0 for row in rows for x in row[n : 2 * n]):
        return None
    return [Fraction(row[-1]) for row in rows]


def compare_models_independently(network: NetworkSpec, lossless: bool = False, **kw) -> dict:
    """`tfa.compare_models` by two independent analyses, one per model,
    each result paired by a scan of the intuitive results."""
    tight = analyze(network, MODEL_TIGHT, lossless, **kw)
    intuitive = analyze(network, MODEL_INTUITIVE, lossless, **kw)
    pairs = {}
    for r in tight.results:
        other = result_for(intuitive, r.flow, r.destination)
        pairs[(r.flow, r.destination)] = (r.interval, other.interval)
    return {"tight": tight, "intuitive": intuitive, "pairs": pairs}


def flow_cumulative_by_order(an: _Analyzer, fid: str, verdicts: dict) -> dict:
    """`_Analyzer._flow_cumulative` at every vertex of the flow, each
    composed in flow order from the interval at its anchor (the reference of
    its re-sequencer or regulator, its nearest diamond ancestor otherwise),
    whether or not a destination's chain reaches it."""
    flow = an.net.flows[fid]
    vdel = an.vertex_delays
    cum = {}
    for v in flow.order:
        if v == flow.source:
            cum[v] = vdel[v]
            continue
        pof = an._function.get((POF, fid, v))
        reg = an._function.get((REG, fid, v))
        cut = pof or reg
        anchor = an._anchor[(fid, v)] if cut is None else cut.reference
        base = an._bounds(fid, anchor, v)
        section = base if pof is None else base.plus(an._wait[(fid, v)])
        if reg is not None:
            if not verdicts[(fid, v)].bounded:
                section = DelayInterval(base.lo, UNBOUNDED)
            elif pof is None:
                section = verdicts[(fid, v)].delay
        cum[v] = cum[anchor].plus(section).plus(vdel[v])
    return cum


def _resequence(inputs: list, place: dict, timeout):
    """The re-sequencer on Fraction instants.  `inputs` are (time, rank) in
    arrival order, `place` maps the rank of each re-sequenced unit to its
    place in source order, and `timeout` is a Fraction or None.  Returns
    (time, rank) in release order, then the bypassing units in time order,
    each with its release index."""
    queue = [(t, place[r], r) for t, r in inputs if r in place]
    released = []
    buffer = {}
    deadlines = []
    expected = 0
    i = 0
    while i < len(queue) or buffer:
        while deadlines and (deadlines[0][1] < expected or deadlines[0][1] not in buffer):
            heappop(deadlines)
        arrival = queue[i][0] if i < len(queue) else None
        if deadlines and (arrival is None or deadlines[0][0] < arrival):
            now, pos = heappop(deadlines)
            for p in sorted(k for k in buffer if k <= pos):
                released.append((now, buffer.pop(p)))
            expected = pos + 1
        else:
            now, pos, rank = queue[i]
            i += 1
            if pos < expected:
                released.append((now, rank))
                continue
            buffer[pos] = rank
            if timeout is not None:
                heappush(deadlines, (now + timeout, pos))
        while expected in buffer:
            released.append((now, buffer.pop(expected)))
            expected += 1
    bypass = sorted((t, r) for t, r in inputs if r not in place)
    return released, [(t, idx, r) for idx, (t, r) in enumerate(released + bypass)]


def _regulate(inputs: list, scenario: Scenario, sources: list) -> list:
    """Token-bucket release on Fraction levels: each positive-rate bucket
    holds `level` at instant `last` and refills at its rate up to its
    burst; all are full at the first emission.  `inputs` are (time, index,
    rank); returns (release time, index, rank) sorted."""
    spec = scenario.pipeline.reg
    start = min(u.time for u in sources)
    buckets = {
        fid: [[seg.rate, seg.burst, seg.burst, start] for seg in sigma.segments if seg.rate]
        for fid, sigma in spec.shaping.items()
    }
    queues = {}
    for item in inputs:
        flow = sources[item[2]].flow
        if flow in spec.shaping:
            queues.setdefault(flow if spec.mode == REG_PER_FLOW else None, []).append(item)
    exits = []
    for items in queues.values():
        prev = None
        for t, idx, rank in items:
            u = sources[rank]
            now = t if prev is None else max(t, prev)
            for rate, _burst, level, last in buckets[u.flow]:
                if level + rate * (now - last) < u.size:
                    now = last + (u.size - level) / rate
            for bucket in buckets[u.flow]:
                rate, burst, level, last = bucket
                bucket[2] = min(burst, level + rate * (now - last)) - u.size
                bucket[3] = now
            exits.append((now, idx, rank))
            prev = now
    return sorted(exits)


def replay_in_fractions(scenario: Scenario):
    """`sim.run_scenario` with every instant a Fraction, for a scenario it
    accepts.  Returns the events as (time, kind, flow, unit, size, branch),
    sorted stably by time with the times put on the lcm of their
    denominators, so that events at one instant keep the order the stages
    made them in."""
    units = scenario.sources
    pipe = scenario.pipeline
    by_time = sorted(range(len(units)), key=lambda j: units[j].time)
    rank = {j: r for r, j in enumerate(by_time)}
    sources = [units[j] for j in by_time]

    def event(time, kind, u, branch=None):
        return (time, kind, u.flow, u.unit, u.size, branch)

    events = [event(u.time, GENERATED, u) for u in sources]
    arrivals = []
    for pidx, path in enumerate(scenario.paths):
        for j, u in enumerate(units):
            action = path.action_for(u.key)
            if isinstance(action, str) and action == DROP:
                continue
            t = u.time + Fraction(action)
            events.append(event(t, BRANCH_EXIT, u, path.name))
            arrivals.append((t, pidx, rank[j]))
    arrivals.sort()
    merged = [(t, r) for t, _p, r in arrivals]
    if pipe.pef:
        first = {}
        for t, r in merged:
            if r not in first:
                first[r] = t
                events.append(event(t, PEF_EXIT, sources[r]))
        merged = [(t, r) for r, t in first.items()]
    if pipe.pof is not None:
        flows = pipe.pof.flows
        members = [r for r, u in enumerate(sources) if flows is None or u.flow in flows]
        order, merged = _resequence(merged, {r: p for p, r in enumerate(members)}, pipe.pof.timeout)
        events.extend(event(t, POF_EXIT, sources[r]) for t, r in order)
        merged.sort()
    else:
        merged = [(t, idx, r) for idx, (t, r) in enumerate(merged)]
    if pipe.reg is not None:
        exits = _regulate(merged, scenario, sources)
        events.extend(event(t, REG_EXIT, sources[r]) for t, _idx, r in exits)

    grid = math.lcm(*{e[0].denominator for e in events})
    events.sort(key=lambda e: e[0].numerator * (grid // e[0].denominator))
    return events


def fraction_trace_measures(scenario: Scenario, events: list):
    """(delays, lost units) of `replay_in_fractions` events, as `sim.Trace`
    returns them: the exit is the last crossing of the flow's final stage,
    and delays are taken on the lcm of the denominators."""
    def final_kind(flow):
        pipe = scenario.pipeline
        if pipe.reg is not None and flow in pipe.reg.shaping:
            return REG_EXIT
        if pipe.pof is not None and (pipe.pof.flows is None or flow in pipe.pof.flows):
            return POF_EXIT
        return PEF_EXIT if pipe.pef else BRANCH_EXIT

    gen = {}
    left = {}
    for time, kind, flow, unit, *_rest in events:
        if kind == GENERATED:
            gen[(flow, unit)] = time
        elif kind == final_kind(flow):
            left[(flow, unit)] = time
    done = {key: left[key] for key in gen if key in left}
    grid = math.lcm(*{t.denominator for t in (*gen.values(), *done.values())})

    def ticks(t):
        return t.numerator * (grid // t.denominator)

    delays = {key: Fraction(ticks(t) - ticks(gen[key]), grid) for key, t in done.items()}
    return delays, sorted(k for k in gen if k not in done)


def fifo_per_flow_by_fractions(scenario: Scenario, events: list, kind: str) -> bool:
    """`sim.is_fifo_per_flow` on `replay_in_fractions` events: within each
    flow, the `kind` crossings of units sorted by emission time (ties in
    source order) have nondecreasing times."""
    order = {u.key: i for i, u in enumerate(sorted(scenario.sources, key=lambda u: u.time))}
    by_flow = {}
    for time, k, flow, unit, *_rest in events:
        if k == kind:
            by_flow.setdefault(flow, []).append((order[(flow, unit)], time))
    return all(
        all(a[1] <= b[1] for a, b in zip(seq, seq[1:])) for seq in map(sorted, by_flow.values())
    )
