"""Independent brute-force oracles used by the test suite.

These mostly avoid the library's own algorithms: convolution is
evaluated as an infimum over explicit split points, deviations as maxima
over dense candidate grids, dominators by full path enumeration, trace
compliance and reordering by checking every pair of units, and the
regulators' ordering question by following every path.  The eliminator
output curve of identical parallel branches has a closed form built from the
min-plus primitives, which the general form must reproduce.  The analyzer's
SCC sweep order (Kosaraju) is checked against Tarjan's algorithm, and its
schedule (each component on its own, dirty vertices only) against the global
loop that re-runs every vertex on every sweep.
"""

import itertools
from fractions import Fraction

from redcalc.minplus import (
    UNBOUNDED,
    ConcaveCurve,
    add,
    convolve,
    deconvolve_delay,
    is_unbounded,
    parse_rational,
)
from redcalc.tfa import (
    CONVERGED,
    DEFAULT_BURST_CAP,
    DEFAULT_ITER_CAP,
    DIVERGED,
    ITERATION_CAP,
    MODEL_TIGHT,
    STALL_PASSES,
    _Analyzer,
)
from redcalc.topology import NetworkSpec


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


def full_sweep_analyze(network, model=MODEL_TIGHT, lossless=False, iter_cap=None, burst_cap=None):
    """`tfa.analyze` by a global Gauss-Seidel loop: every vertex, in sweep
    order, on every sweep, until a sweep changes nothing, the burst cap is
    exceeded or `iter_cap` sweeps have run; a cut-off run sweeps once more.
    The stop rules and the stall rule apply to the whole network, so
    `iterations` counts its sweeps."""
    iter_cap = DEFAULT_ITER_CAP if iter_cap is None else iter_cap
    burst_cap = DEFAULT_BURST_CAP if burst_cap is None else parse_rational(burst_cap)
    an = _Analyzer(network, model, lossless, burst_cap)
    order = [v for comp in an.components for v in comp]

    def sweep():
        changed = False
        for v in order:
            changed |= an._process_vertex(v)
        return changed

    if not an.quantize:  # feed-forward
        sweep()
        an.iterations = 1
    else:
        stalled = 0
        for i in range(1, iter_cap + 1):
            curve_changes = an.curve_changes
            changed = sweep()
            an.iterations = i
            if an.status == DIVERGED or not changed:
                break
            # the stall rule of `_Analyzer.settle`, on the whole network:
            # after STALL_PASSES sweeps that change no curve, every cyclic
            # component's port delays go on the grid
            stalled = stalled + 1 if an.curve_changes == curve_changes else 0
            if stalled == STALL_PASSES:
                for comp in an.components:
                    if len(comp) > 1 and comp[0] not in an._delay_grid:
                        an._grid_delays(comp)
        else:
            an.status = ITERATION_CAP
            an.notes.append(f"no fixed point within {iter_cap} sweeps")
    if an.status != CONVERGED:
        sweep()
    return an.report()
