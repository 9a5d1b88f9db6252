"""Exact trajectory measurements: curve compliance, reordering, FIFO checks.

Each measure puts its times (and sizes) on their integer grid through
`minplus._on_grid`, and works on those integers; results are converted
back to Fractions, so they are exact and equal to what Fraction arithmetic
would give.  `is_fifo_per_flow` reads a trace, whose events already carry
their instants as ticks of one grid.

`measure_reordering` needs no per-unit search structure.  If a unit v
ranked before u arrives no earlier than u, every unit ranked after u that is
present at u's arrival is ranked after v and present at v's arrival too, so
with sizes that are not negative, v holds at least u's bytes.  The largest
reordering byte offset is then held by a unit that arrives strictly after
every earlier-ranked one, and each such unit's count is a difference of two
prefix sums.  Both offsets come from sorts and running sums.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, compress, islice
from operator import eq, itemgetter, sub

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

    Ranks must be distinct ints (a bool is not one), else a TypeError or a
    ValueError; sizes must not be negative.  In rank order, the time offset
    is the largest t_k - min(t_k, t_k+1, ...), one suffix-minimum pass.  For
    the byte offset, if an earlier-ranked unit v arrives no earlier than u,
    every later-ranked unit present at u's arrival is present at v's too, so
    v holds at least u's bytes: the maximum is held by a unit that arrives
    strictly after every earlier-ranked one.  Such a unit finds present all
    the bytes that arrived strictly before it, less the bytes ranked before
    it, which all did: two prefix sums and one bisection per such unit.
    """
    items = [(r, parse_rational(t), parse_rational(sz)) for r, t, sz in units]
    if set(map(type, map(itemgetter(0), items))) - {int}:
        for r, _t, _sz in items:
            if not isinstance(r, int) or isinstance(r, bool):
                raise TypeError(f"rank {r!r} is not an int")
    items.sort(key=itemgetter(0))
    if len(items) < 2:
        return Fraction(0), Fraction(0)
    ranks, times, sizes = zip(*items)
    del items
    # ranks are sorted: a duplicate sits next to its twin
    dup = next(compress(ranks, map(eq, ranks, islice(ranks, 1, None))), None)
    if dup is not None:
        raise ValueError(f"duplicate rank {dup}")
    del ranks
    tden, times = _on_grid(times)
    sden, sizes = _on_grid(sizes)
    if min(sizes) < 0:
        raise ValueError("negative size")

    # in reverse rank order, each arrival less the earliest one at or after it
    rto = max(map(sub, reversed(times), accumulate(reversed(times), min)))

    order = sorted(range(len(times)), key=times.__getitem__)
    arrived = [times[i] for i in order]
    # by_arrival[i]: the bytes of the i earliest arrivals
    by_arrival = list(accumulate(map(sizes.__getitem__, order), initial=0))
    del order
    # each unit with the bytes ranked before it and the latest arrival
    # among them; rank 0 has none, so it counts
    latest = chain((times[0] - 1,), accumulate(times, max))
    ranked = zip(times, accumulate(sizes, initial=0), latest)
    rbo = max(by_arrival[bisect_left(arrived, t)] - before for t, before, last in ranked if t > last)
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
