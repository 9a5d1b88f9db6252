"""Exact trajectory measurements: curve compliance, reordering, FIFO checks.

Each measure puts its times (and sizes) on their integer grid through
`minplus._on_grid`, and works on those integers; results are converted
back to Fractions, so they are exact and equal to what Fraction arithmetic
would give.  `is_fifo_per_flow` reads a trace, whose events already carry
their instants as ticks of one grid.
"""

from fractions import Fraction

from ..minplus import ConcaveCurve, _on_grid, parse_rational
from .engine import GENERATED, _no_gc


@_no_gc
def check_compliance(events, curve: ConcaveCurve) -> dict | None:
    """Earliest window where a timed size sequence exceeds its arrival curve.

    ``events`` is an iterable of (time, size) pairs.  A window [s, t] is
    compliant when the total size of units with s <= time <= t is at most
    curve.envelope(t - s).  Returns None if every window complies, otherwise
    a dict naming the first offending window end.
    """
    pts = [(parse_rational(t), parse_rational(sz)) for t, sz in events]
    if not pts:
        return None
    tden, times = _on_grid([t for t, _sz in pts])
    sden, sizes = _on_grid([sz for _t, sz in pts])
    del pts
    pts = sorted(zip(times, sizes))
    del times, sizes
    prefix = [0]
    for _, sz in pts:
        prefix.append(prefix[-1] + sz)
    for seg in curve.segments:
        # need (C_j - r*t_j) - min_{i<=j} (C_{i-1} - r*t_i) <= b for all j,
        # scaled by tden * rate.denominator * sden so every term is an integer
        size_w = tden * seg.rate.denominator
        time_w = seg.rate.numerator * sden
        # the excess is an integer, so comparing it with floor(b * scale) is exact
        cap = seg.burst.numerator * (size_w * sden) // seg.burst.denominator
        best = None
        best_idx = 0
        for j, (t_j, _sz) in enumerate(pts):
            v = prefix[j] * size_w - time_w * t_j
            if best is None or v < best:
                best, best_idx = v, j
            if prefix[j + 1] * size_w - time_w * t_j - best > cap:
                start = Fraction(pts[best_idx][0], tden)
                end = Fraction(t_j, tden)
                return {
                    "window_start": start,
                    "window_end": end,
                    "observed": Fraction(prefix[j + 1] - prefix[best_idx], sden),
                    "allowed": curve.envelope(end - start),
                }
    return None


@_no_gc
def measure_reordering(units) -> tuple:
    """(time offset, byte offset) of a received sequence.

    ``units`` is an iterable of (rank, time, size) for the units that actually
    arrived, where rank is the source emission order.  The time offset is the
    longest wait between a unit's arrival and the arrival of a later-ranked
    unit that overtook it; the byte offset is the largest volume of
    later-ranked data already present when a unit arrives.
    """
    items = sorted(
        ((int(r), parse_rational(t), parse_rational(sz)) for r, t, sz in units),
        key=lambda it: it[0],
    )
    if len(items) < 2:
        return Fraction(0), Fraction(0)
    _ranks, times, sizes = zip(*items)
    del items, _ranks
    tden, times = _on_grid(times)
    sden, sizes = _on_grid(sizes)

    rto = 0
    suffix_min = times[-1]
    for k in range(len(times) - 2, -1, -1):
        rto = max(rto, times[k] - suffix_min)
        suffix_min = min(suffix_min, times[k])

    # Fenwick tree over arrival instants: tree[i] sums the sizes of the
    # later-ranked units seen so far in a range of instants ending at i - 1
    slot = {t: i for i, t in enumerate(sorted(set(times)))}
    tree = [0] * (len(slot) + 1)
    rbo = 0
    for rank in range(len(times) - 1, -1, -1):
        i = slot[times[rank]]
        total = 0  # strictly earlier arrivals only: instants [0, i)
        j = i
        while j > 0:
            total += tree[j]
            j -= j & -j
        rbo = max(rbo, total)
        j = i + 1
        while j < len(tree):
            tree[j] += sizes[rank]
            j += j & -j
    return Fraction(rto, tden), Fraction(rbo, sden)


def is_fifo_per_flow(trace, kind: str) -> bool:
    """True when, within each flow, units cross ``kind`` in source order."""
    order = {(e.flow, e.unit): i for i, e in enumerate(trace.of_kind(GENERATED))}
    stamped = {}
    for e in trace.of_kind(kind):
        stamped.setdefault(e.flow, []).append((order[(e.flow, e.unit)], e.tick))
    for seq in stamped.values():
        seq.sort()
        last = None
        for _rank, t in seq:
            if last is not None and t < last:
                return False
            last = t
    return True
