"""Exact min-plus algebra on concave piecewise-linear curves.

Everything here is computed with rational arithmetic (`fractions.Fraction`);
no floats enter any bound.  The curve model is deliberately restricted to
concave piecewise-linear functions that are 0 at t=0, i.e. finite minima of
token buckets t -> r*t + b.  Staircase (packetized) curves are out of scope
of this model.

Unbounded results (a horizontal deviation against an overloaded server, the
pseudo-inverse of a capped curve) are returned as the `UNBOUNDED` sentinel,
which compares correctly against any Fraction.

The public constructors (`TokenBucket`, `ConcaveCurve`) parse, check and
normalize their input.  The operations build their results from `Fraction`s
they already hold, which are nonnegative by construction, so they skip the
parsing and the sign checks (`_bucket` checks nothing) and, where the result
is canonical by construction, the normalization (`ConcaveCurve._canonical`):
`add` sums any number of curves in one merge of their breakpoints, and its
pieces come out canonical.  Each of its rates and bursts is summed over the
common denominator of its terms and normalized once (`_exact_sum`), and so
is each burst that `deconvolve_delay` spreads (`_plus_product`); an `Affine`
term is summed as a form.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .record import FrozenRecord

UNBOUNDED = math.inf


def is_unbounded(x) -> bool:
    # only a float can be infinite; a Fraction or an int never is
    return type(x) is float and x == UNBOUNDED


class Affine:
    """An exact value that is also an affine form in some unknowns.

    `value` is the form at the current values of the unknowns and `coeffs`
    maps each unknown to its coefficient.  Sums, differences and products by
    a rational keep both; a product of two forms is not affine and raises
    TypeError.  Comparisons and equality look at `value` only, so an
    operation over forms takes the branch it takes at the current point and
    its result is the affine piece of that operation there.
    """

    __slots__ = ("value", "coeffs")
    __hash__ = None

    def __init__(self, value, coeffs: dict):
        self.value = value
        self.coeffs = coeffs

    def __repr__(self):
        return f"Affine({self.value}, {self.coeffs})"

    def __add__(self, other):
        if type(other) is not Affine:
            return Affine(self.value + other, self.coeffs)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
        return Affine(self.value + other.value, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, k):
        if type(k) is Affine:
            raise TypeError("the product of two affine forms is not affine")
        return Affine(self.value * k, {u: c * k for u, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * (1 / Fraction(k))

    def __eq__(self, other):
        return self.value == _value(other)

    def __lt__(self, other):
        return self.value < _value(other)

    def __le__(self, other):
        return self.value <= _value(other)

    def __gt__(self, other):
        return self.value > _value(other)

    def __ge__(self, other):
        return self.value >= _value(other)


def _value(x):
    return x.value if type(x) is Affine else x


def parse_rational(value) -> Fraction:
    """Accept int, Fraction, 'p/q' or decimal strings, and exact floats; an
    `Affine` form passes through."""
    if type(value) is Fraction or type(value) is Affine:
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float is not a rational value")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rational_str(x) -> str:
    if type(x) is Fraction:
        return str(x)
    if is_unbounded(x):
        return "unbounded"
    return str(Fraction(x))


def to_jsonable(value):
    """`value` ready for `json.dumps`: a Fraction as its rational string,
    UNBOUNDED as "unbounded", an object through its own `to_json()`, dicts,
    lists and tuples entry by entry; None, bools, ints and strings as they
    are."""
    kind = type(value)
    if kind is Fraction:
        return str(value)
    if kind is dict:
        return {k: to_jsonable(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [to_jsonable(v) for v in value]
    if value is None or kind is str or kind is int or kind is bool:
        return value
    if is_unbounded(value):
        return "unbounded"
    to_json = getattr(value, "to_json", None)
    return value if to_json is None else to_json()


class TokenBucket(FrozenRecord):
    """Leaky-bucket constraint t -> rate*t + burst (for t > 0)."""

    __slots__ = _fields = ("rate", "burst")

    def __init__(self, rate, burst):
        rate, burst = parse_rational(rate), parse_rational(burst)
        if rate < 0:
            raise ValueError("token bucket rate must be >= 0")
        if burst < 0:
            raise ValueError("token bucket burst must be >= 0")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "burst", burst)

    def to_json(self) -> dict:
        return {"rate": rational_str(self.rate), "burst": rational_str(self.burst)}


def _bucket(rate: Fraction, burst: Fraction) -> TokenBucket:
    """TokenBucket from two Fractions, without parsing or checking them: the
    callers build them nonnegative."""
    bucket = object.__new__(TokenBucket)
    object.__setattr__(bucket, "rate", rate)
    object.__setattr__(bucket, "burst", burst)
    return bucket


class RateLatency(FrozenRecord):
    """Rate-latency service curve t -> rate * max(0, t - latency)."""

    __slots__ = _fields = ("rate", "latency")

    def __init__(self, rate, latency):
        rate, latency = parse_rational(rate), parse_rational(latency)
        if rate <= 0:
            raise ValueError("service rate must be > 0")
        if latency < 0:
            raise ValueError("service latency must be >= 0")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "latency", latency)

    def eval(self, t) -> Fraction:
        t = parse_rational(t)
        return self.rate * max(Fraction(0), t - self.latency)


class ConcaveCurve(FrozenRecord):
    """Finite minimum of token buckets, normalized to a canonical form.

    The value is 0 at t = 0 and min over segments of rate*t + burst for t > 0.
    Normalization removes every segment that is not strictly below the others
    on some open interval, so equal curves have equal segment tuples.
    """

    __slots__ = _fields = ("segments",)

    def __init__(self, segments: Iterable):
        segs = []
        for s in segments:
            if isinstance(s, TokenBucket):
                segs.append(s)
            else:
                rate, burst = s
                segs.append(TokenBucket(rate, burst))
        if not segs:
            raise ValueError("a concave curve needs at least one segment")
        object.__setattr__(self, "segments", _normalize(segs))

    @classmethod
    def _canonical(cls, segments: tuple) -> "ConcaveCurve":
        """Curve over a tuple of TokenBuckets already in canonical form."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "segments", segments)
        return curve

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


def _cross_point(hi: TokenBucket, lo: TokenBucket) -> Fraction:
    # abscissa where segments with hi.rate > lo.rate and hi.burst < lo.burst meet
    return (lo.burst - hi.burst) / (hi.rate - lo.rate)


def _normalize(segs: list) -> tuple:
    if len(segs) == 1:
        return (segs[0],)
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
    raise TypeError(f"expected a curve, got {type(curve).__name__}")


def add(a: ConcaveCurve, b: ConcaveCurve, *more: ConcaveCurve) -> ConcaveCurve:
    """Pointwise sum of two or more curves, in one merge of their breakpoints.

    From t = 0+ each operand is on its lowest-burst segment and moves to its
    next lower rate at each of its breakpoints.  Walking the breakpoints of
    all operands in ascending order, the sum on each interval between two of
    them is the sum of the active segments.  These pieces have strictly
    falling rates and strictly rising bursts, and each is the sum on an open
    interval, so the result is canonical and needs no normalization pass.
    Summing is exact, so the order of the operands does not matter.
    """
    operands = [_coerce(c).segments for c in (a, b, *more)]
    active = [len(segs) - 1 for segs in operands]  # index of the active segment
    # (abscissa, operand) of every breakpoint, ascending
    crossings = sorted(
        (_cross_point(segs[i], segs[i - 1]), k)
        for k, segs in enumerate(operands)
        for i in range(len(segs) - 1, 0, -1)
    )
    pieces = [_sum_active(operands, active)]  # rate descending
    for j, (x, k) in enumerate(crossings):
        active[k] -= 1
        if j + 1 == len(crossings) or crossings[j + 1][0] != x:
            pieces.append(_sum_active(operands, active))
    pieces.reverse()
    return ConcaveCurve._canonical(tuple(pieces))


def _sum_active(operands: list, active: list) -> TokenBucket:
    segs = [ops[i] for ops, i in zip(operands, active)]
    return _bucket(_exact_sum([s.rate for s in segs]), _exact_sum([s.burst for s in segs]))


def _exact_sum(terms: list):
    """The sum of the terms: Fractions on their integer grid, normalized
    once; with an `Affine` term (the solve's bursts), term by term."""
    if any(type(x) is Affine for x in terms):
        return sum(terms[1:], terms[0])
    grid, ticks = _on_grid(terms)
    return Fraction(sum(ticks), grid)


def _on_grid(values: list):
    """The integer grid of rationals: the lcm of their denominators, and
    each value as a whole number of its ticks."""
    ratios = [x.as_integer_ratio() for x in values]
    grid = math.lcm(*{d for _n, d in ratios})
    return grid, [n * (grid // d) for n, d in ratios]


def convolve(a: ConcaveCurve, b: ConcaveCurve) -> ConcaveCurve:
    """Min-plus convolution; for concave curves through 0 this is the min."""
    a, b = _coerce(a), _coerce(b)
    return ConcaveCurve._canonical(_normalize(a.segments + b.segments))


def deconvolve_delay(a: ConcaveCurve, delay) -> ConcaveCurve:
    """a deconvolved by a bounded-delay element: each burst grows by rate*J."""
    a = _coerce(a)
    j = parse_rational(delay)
    sign = (j.value if type(j) is Affine else j).numerator
    if sign < 0:
        raise ValueError("jitter must be >= 0")
    if sign == 0:
        return a
    segs = [_bucket(s.rate, _plus_product(s.burst, s.rate, j)) for s in a.segments]
    return ConcaveCurve._canonical(_normalize(segs) if len(segs) > 1 else (segs[0],))


def _plus_product(x, r: Fraction, j):
    """x + r * j: for Fractions, over one common denominator and normalized
    once; with an `Affine` burst or jitter (the solve's), as forms."""
    if type(x) is Affine or type(j) is Affine:
        return x + r * j
    (xn, xd), (rn, rd), (jn, jd) = x.as_integer_ratio(), r.as_integer_ratio(), j.as_integer_ratio()
    return Fraction(xn * rd * jd + rn * jn * xd, xd * rd * jd)


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
