"""Delay penalties and stability verdicts for shapers placed after
packet-elimination points.

A regulator re-spaces packets back to a shaping curve sigma.  Placed inside
a FIFO path it is transparent for worst-case delay (shaping for free), but
downstream of an eliminator the input is re-ordered and the guarantees
change sharply:

- a per-flow regulator pays a bounded penalty (the section jitter),
- an interleaved regulator shared by enough flows has no delay bound at
  all, unless a re-sequencing function is inserted first,
- with re-sequencing in front, both kinds are again transparent.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .minplus import (
    ConcaveCurve,
    deconvolve_delay,
    h_dev,
    is_unbounded,
    parse_rational,
)
from .record import FrozenRecord
from .topology import DelayInterval

IR_AFTER_PEF_NO_POF = "IR_AFTER_PEF_NO_POF"
RATE_OVERLOAD = "RATE_OVERLOAD"
UNPROVEN_CONFIGURATION = "UNPROVEN_CONFIGURATION"


class RegulatorVerdict(FrozenRecord):
    """Either Bounded with a delay interval, or Unbounded with a reason code.

    `q_min` reports how many flows make the interleaved case provably
    unstable; `proven` distinguishes a constructed divergence from a
    configuration that merely lacks a bound.
    """

    __slots__ = _fields = ("bounded", "delay", "reason", "q_min", "proven")

    def __init__(self, bounded: bool, delay: DelayInterval | None = None,
                 reason: str | None = None, q_min: int | None = None, proven: bool = True):
        self._set_fields(bounded, delay, reason, q_min, proven)

    @staticmethod
    def of_interval(delay: DelayInterval) -> "RegulatorVerdict":
        return RegulatorVerdict(bounded=True, delay=delay)

    @staticmethod
    def unbounded(reason: str, q_min=None, proven=True) -> "RegulatorVerdict":
        return RegulatorVerdict(
            bounded=False, reason=reason, q_min=q_min, proven=proven
        )

    def to_json(self) -> dict:
        if self.bounded:
            return {"verdict": "bounded", "delay": self.delay.to_json()}
        out = {"verdict": "unbounded", "reason": self.reason, "proven": self.proven}
        if self.q_min is not None:
            out["q_min"] = self.q_min
        return out


def pfr_after_pef_bounds(
    sigma: ConcaveCurve, bounds: DelayInterval
) -> DelayInterval:
    """Through-delay of section + per-flow regulator, section delay in
    [d, D] and sigma an arrival curve of the flow at the section input.

    The regulator's extra wait is the horizontal deviation of the worst
    regulator input (sigma spread by the section jitter) against sigma
    offered as service.  For a token bucket that wait is the jitter itself,
    which gives [d, 2D - d].
    """
    if is_unbounded(bounds.hi):
        raise ValueError("section delay must be bounded")
    worst_in = deconvolve_delay(sigma, bounds.width)
    penalty = h_dev(worst_in, sigma)
    if is_unbounded(penalty):
        raise ValueError("shaping curve cannot carry its own jittered traffic")
    return DelayInterval(bounds.lo, bounds.hi + penalty)


def pfr_after_pef_rto(pef_rto, bounds: DelayInterval):
    """Reordering time offset after the regulator: the regulator can hold
    an early unit for up to the section jitter on top of the PEF offset."""
    if is_unbounded(pef_rto) or is_unbounded(bounds.hi):
        return math.inf
    return parse_rational(pef_rto) + bounds.width


def ir_q_min(rate, burst, first: DelayInterval, second: DelayInterval) -> int:
    """Fewest flows for which an interleaved regulator fed by a two-branch
    eliminator is provably unstable, for shaping curve rate/burst."""
    rate = parse_rational(rate)
    burst = parse_rational(burst)
    if rate <= 0 or burst <= 0:
        raise ValueError("instability threshold needs rate > 0 and burst > 0")
    b1, b2 = sorted((first, second), key=lambda b: b.hi)
    if is_unbounded(b2.hi):
        raise ValueError("branch delays must be bounded")
    gap = max(Fraction(0), b2.lo - b1.hi)
    return math.floor(2 * rate * gap / burst + 2) + 1


def ir_after_pef_verdict(shaping: dict, branch_bounds, lmin: dict) -> RegulatorVerdict:
    """Stability verdict for an interleaved regulator fed by an eliminator.

    shaping maps flow id -> sigma at the regulator, lmin maps flow id ->
    minimum data unit size, branch_bounds are the per-branch [d, D] of the
    shared section.

    The verdict for q >= 2 flows is never Bounded: when the adversarial
    construction applies (homogeneous token-bucket shaping, two distinct
    branches, unequal delays, bursts that fit a real packet, q at least the
    threshold) the instability is proven; anything else is conservatively
    unbounded.
    """
    branch_bounds = list(branch_bounds)
    q = len(shaping)
    if q < 2:
        raise ValueError("an interleaved regulator needs two or more flows")

    sigmas = list(shaping.values())
    seg = sigmas[0].segments[0]
    homogeneous = all(s == sigmas[0] for s in sigmas[1:])
    if not homogeneous or len(sigmas[0].segments) > 1 or seg.rate <= 0 or seg.burst <= 0:
        return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False)

    # None exactly when there are fewer than two branches
    threshold = min((ir_q_min(seg.rate, seg.burst, a, b)
                     for a, b in itertools.combinations(branch_bounds, 2)), default=None)

    unequal = any(b != branch_bounds[0] or b.lo != b.hi for b in branch_bounds)
    packet_fits = all(seg.burst >= l for l in lmin.values())

    if unequal and packet_fits and threshold is not None:
        return RegulatorVerdict.unbounded(IR_AFTER_PEF_NO_POF, q_min=threshold, proven=q >= threshold)
    return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, q_min=threshold, proven=False)


def preof_for_free_bounds(bounds: DelayInterval, wait: DelayInterval) -> DelayInterval:
    """Through-delay of section + re-sequencer + regulator, for a section
    delay in `bounds` and a re-sequencer wait in `wait`.

    With re-sequencing in front, the regulator never delays the worst-case
    unit (shaping for free): the through-delay is the section's plus the
    re-sequencer's own wait, which is zero for lossless traffic and up to
    the timeout if every replicate of a unit can be lost."""
    return bounds.plus(wait)
