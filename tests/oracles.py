"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: convolution is
evaluated as an infimum over explicit split points, deviations as maxima
over dense candidate grids, dominators by full path enumeration, and trace
compliance and reordering by checking every pair of units.
"""

import itertools
from fractions import Fraction

from redcalc.minplus import UNBOUNDED, ConcaveCurve


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
