"""Exact min-plus algebra on concave piecewise-linear curves.

Everything here is computed with rational arithmetic (`fractions.Fraction`);
no floats enter any bound.  The curve model is deliberately restricted to
concave piecewise-linear functions that are 0 at t=0, i.e. finite minima of
token buckets t -> r*t + b.  Staircase (packetized) curves are out of scope
of this model.

Unbounded results (a horizontal deviation against an overloaded server, the
pseudo-inverse of a capped curve) are returned as the `UNBOUNDED` sentinel,
which compares correctly against any Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

UNBOUNDED = math.inf

Rational = Union[int, str, Fraction]


def is_unbounded(x) -> bool:
    return x == UNBOUNDED


def parse_rational(value) -> Fraction:
    """Accept int, Fraction, 'p/q' or decimal strings, and exact floats."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float is not a rational value")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rational_str(x) -> str:
    if is_unbounded(x):
        return "unbounded"
    return str(Fraction(x))


@dataclass(frozen=True)
class TokenBucket:
    """Leaky-bucket constraint t -> rate*t + burst (for t > 0)."""

    rate: Fraction
    burst: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rate", parse_rational(self.rate))
        object.__setattr__(self, "burst", parse_rational(self.burst))
        if self.rate < 0:
            raise ValueError("token bucket rate must be >= 0")
        if self.burst < 0:
            raise ValueError("token bucket burst must be >= 0")

    def as_curve(self) -> "ConcaveCurve":
        return ConcaveCurve([self])

    def to_json(self) -> dict:
        return {"rate": rational_str(self.rate), "burst": rational_str(self.burst)}


@dataclass(frozen=True)
class RateLatency:
    """Rate-latency service curve t -> rate * max(0, t - latency)."""

    rate: Fraction
    latency: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rate", parse_rational(self.rate))
        object.__setattr__(self, "latency", parse_rational(self.latency))
        if self.rate <= 0:
            raise ValueError("service rate must be > 0")
        if self.latency < 0:
            raise ValueError("service latency must be >= 0")

    def eval(self, t) -> Fraction:
        t = parse_rational(t)
        return self.rate * max(Fraction(0), t - self.latency)

    def to_json(self) -> dict:
        return {"rate": rational_str(self.rate), "latency": rational_str(self.latency)}


class ConcaveCurve:
    """Finite minimum of token buckets, normalized to a canonical form.

    The value is 0 at t = 0 and min over segments of rate*t + burst for t > 0.
    Normalization removes every segment that is not strictly below the others
    on some open interval, so equal curves have equal segment tuples.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable):
        segs = []
        for s in segments:
            if isinstance(s, TokenBucket):
                segs.append(s)
            elif isinstance(s, dict):
                segs.append(TokenBucket(s["rate"], s["burst"]))
            else:
                rate, burst = s
                segs.append(TokenBucket(rate, burst))
        if not segs:
            raise ValueError("a concave curve needs at least one segment")
        object.__setattr__(self, "segments", _normalize(segs))

    def __setattr__(self, name, value):
        raise AttributeError("ConcaveCurve is immutable")

    def __eq__(self, other):
        return isinstance(other, ConcaveCurve) and self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def __repr__(self):
        inner = ", ".join(f"({s.rate}, {s.burst})" for s in self.segments)
        return f"ConcaveCurve([{inner}])"

    def eval(self, t) -> Fraction:
        t = parse_rational(t)
        if t < 0:
            raise ValueError("curves are defined for t >= 0")
        if t == 0:
            return Fraction(0)
        return self.envelope(t)

    def envelope(self, dt) -> Fraction:
        """min over segments of rate*dt + burst, without the 0-at-0 convention.

        This is the bound on data observed in any closed window of length dt,
        which is what trace compliance checks need (dt = 0 gives the burst).
        """
        dt = parse_rational(dt)
        return min(s.rate * dt + s.burst for s in self.segments)

    @property
    def min_rate(self) -> Fraction:
        return self.segments[0].rate  # segments sorted by rate ascending

    @property
    def min_burst(self) -> Fraction:
        return self.segments[-1].burst

    def breakpoints(self) -> list:
        """Crossing abscissas between consecutive active segments, ascending."""
        by_rate_desc = list(reversed(self.segments))
        return [
            _cross_point(by_rate_desc[i], by_rate_desc[i + 1])
            for i in range(len(by_rate_desc) - 1)
        ]

    def to_json(self) -> dict:
        return {"segments": [s.to_json() for s in self.segments]}

    @staticmethod
    def from_json(data: dict) -> "ConcaveCurve":
        return ConcaveCurve(data["segments"])


def _cross_point(hi: TokenBucket, lo: TokenBucket) -> Fraction:
    # abscissa where segments with hi.rate > lo.rate and hi.burst < lo.burst meet
    return (lo.burst - hi.burst) / (hi.rate - lo.rate)


def _normalize(segs: list) -> tuple:
    # keep the smallest burst per rate
    best = {}
    for s in segs:
        cur = best.get(s.rate)
        if cur is None or s.burst < cur.burst:
            best[s.rate] = s
    ordered = sorted(best.values(), key=lambda s: s.rate)
    # drop segments dominated by a lower-rate, lower-or-equal-burst segment
    kept = []
    min_burst = None
    for s in ordered:
        if min_burst is None or s.burst < min_burst:
            kept.append(s)
            min_burst = s.burst
    # lower-envelope pruning: remove segments never strictly minimal
    stack = []
    for s in reversed(kept):  # rate descending
        while len(stack) >= 2 and _cross_point(stack[-2], s) <= _cross_point(
            stack[-2], stack[-1]
        ):
            stack.pop()
        stack.append(s)
    return tuple(reversed(stack))


def _coerce(curve) -> ConcaveCurve:
    if isinstance(curve, ConcaveCurve):
        return curve
    if isinstance(curve, TokenBucket):
        return curve.as_curve()
    raise TypeError(f"expected a curve, got {type(curve).__name__}")


def add(a: ConcaveCurve, b: ConcaveCurve) -> ConcaveCurve:
    """Pointwise sum; segment pairs are matched on the active intervals."""
    a, b = _coerce(a), _coerce(b)
    pieces = []
    xs = sorted(set(a.breakpoints()) | set(b.breakpoints()))
    actives_a = _active_sequence(a, xs)
    actives_b = _active_sequence(b, xs)
    for sa, sb in zip(actives_a, actives_b):
        pieces.append(TokenBucket(sa.rate + sb.rate, sa.burst + sb.burst))
    return ConcaveCurve(pieces)


def _active_sequence(curve: ConcaveCurve, xs: list) -> list:
    """Active segment of `curve` on each interval of the partition by xs."""
    out = []
    bounds = [Fraction(0)] + list(xs) + [xs[-1] + 1 if xs else Fraction(1)]
    for i in range(len(bounds) - 1):
        mid_lo, mid_hi = bounds[i], bounds[i + 1]
        mid = (mid_lo + mid_hi) / 2
        val = curve.envelope(mid)
        for s in curve.segments:
            if s.rate * mid + s.burst == val:
                out.append(s)
                break
    return out


def convolve(a: ConcaveCurve, b: ConcaveCurve) -> ConcaveCurve:
    """Min-plus convolution; for concave curves through 0 this is the min."""
    a, b = _coerce(a), _coerce(b)
    return ConcaveCurve(list(a.segments) + list(b.segments))


def deconvolve_delay(a: ConcaveCurve, delay) -> ConcaveCurve:
    """a deconvolved by a bounded-delay element: each burst grows by rate*J."""
    a = _coerce(a)
    j = parse_rational(delay)
    if j < 0:
        raise ValueError("jitter must be >= 0")
    return ConcaveCurve([TokenBucket(s.rate, s.burst + s.rate * j) for s in a.segments])


def lower_pseudo_inverse(a: ConcaveCurve, y):
    """inf{t >= 0 : a(t) >= y}; UNBOUNDED when a is capped below y."""
    a = _coerce(a)
    y = parse_rational(y)
    if y < 0:
        raise ValueError("pseudo-inverse argument must be >= 0")
    if y == 0:
        return Fraction(0)
    t = Fraction(0)
    for s in a.segments:
        if s.burst >= y:
            continue
        if s.rate == 0:
            return UNBOUNDED
        t = max(t, (y - s.burst) / s.rate)
    return t


def _sup_minus_line(alpha: ConcaveCurve, rate: Fraction):
    """sup over t > 0 of alpha(t) - rate*t, exact; UNBOUNDED on overload."""
    if alpha.min_rate > rate:
        return UNBOUNDED
    best = alpha.min_burst  # limit for t -> 0+
    for t in alpha.breakpoints():
        best = max(best, alpha.envelope(t) - rate * t)
    return best


def h_dev(alpha: ConcaveCurve, beta):
    """Horizontal deviation (worst-case delay) of alpha against service beta.

    beta is a RateLatency or a ConcaveCurve (a shaping curve offered as
    service).  UNBOUNDED exactly when the service long-term rate cannot keep
    up with the arrival long-term rate.
    """
    alpha = _coerce(alpha)
    if isinstance(beta, RateLatency):
        e = _sup_minus_line(alpha, beta.rate)
        if is_unbounded(e):
            return UNBOUNDED
        return beta.latency + max(Fraction(0), e) / beta.rate
    beta = _coerce(beta)
    worst = Fraction(0)
    for s in beta.segments:
        if s.rate == 0:
            e = _sup_minus_line(alpha, Fraction(0))
            if is_unbounded(e) or e > s.burst:
                return UNBOUNDED
            continue
        e = _sup_minus_line(alpha, s.rate)
        if is_unbounded(e):
            return UNBOUNDED
        worst = max(worst, (e - s.burst) / s.rate)
    return max(Fraction(0), worst)


def v_dev(alpha: ConcaveCurve, beta):
    """Vertical deviation (backlog bound) of alpha against service beta."""
    alpha = _coerce(alpha)
    if isinstance(beta, RateLatency):
        if alpha.min_rate > beta.rate:
            return UNBOUNDED
        best = alpha.eval(beta.latency) if beta.latency > 0 else alpha.min_burst
        for t in alpha.breakpoints():
            if t > beta.latency:
                best = max(best, alpha.envelope(t) - beta.eval(t))
        return best
    beta = _coerce(beta)
    if alpha.min_rate > beta.min_rate:
        return UNBOUNDED
    best = max(Fraction(0), alpha.min_burst - beta.min_burst)
    for t in sorted(set(alpha.breakpoints()) | set(beta.breakpoints())):
        best = max(best, alpha.envelope(t) - beta.envelope(t))
    return best


def curve_leq(a: ConcaveCurve, b: ConcaveCurve) -> bool:
    """True iff a(t) <= b(t) for every t >= 0 (exact)."""
    a, b = _coerce(a), _coerce(b)
    if a.min_rate > b.min_rate:
        return False
    if a.min_burst > b.min_burst:
        return False
    points = set(a.breakpoints()) | set(b.breakpoints())
    for t in points:
        if a.envelope(t) > b.envelope(t):
            return False
    return True
