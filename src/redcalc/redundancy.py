"""Arrival curves and reordering bounds around packet-elimination points.

A replicated flow crosses a section with per-branch delay bounds and is
de-duplicated by a packet-elimination function (PEF) at the merge.  The PEF
forwards the first replicate of each data unit and drops the rest, with zero
delay of its own, so its output keeps the section's [d, D] bounds but can be
burstier and re-ordered.  This module computes:

- output arrival curves (jitter shift, elimination-aware tightening),
- reordering offsets in time (RTO) and bytes (RBO).
"""

from __future__ import annotations

from fractions import Fraction

from .minplus import (
    UNBOUNDED,
    ConcaveCurve,
    add,  # unused here, but bench/tracing.py counts the calls made through this binding
    convolve,
    deconvolve_delay,
    is_unbounded,
    lower_pseudo_inverse,
    parse_rational,
)
from .topology import DelayInterval


def lossy_jitter_output_curve(
    alpha: ConcaveCurve, bounds: DelayInterval
) -> ConcaveCurve:
    """Output curve after any system with delay in [d, D]: alpha spread by
    the jitter D - d.  Holds without FIFO or lossless assumptions."""
    if is_unbounded(bounds.hi):
        raise ValueError("cannot propagate a curve through an unbounded delay")
    return deconvolve_delay(alpha, bounds.width)


def pef_output_curve(alpha_in: ConcaveCurve, ancestors) -> ConcaveCurve:
    """Tight PEF output curve.

    alpha_in is the arrival curve of the merged branches at the PEF input
    (sum of the branch curves).  Each ancestor is a pair (curve at the
    ancestor output, [d, D] bounds of the ancestor -> PEF section); because
    the PEF drops duplicates, the output also satisfies every ancestor curve
    spread by its section jitter.
    """
    result = alpha_in
    for curve, bounds in ancestors:
        result = convolve(result, lossy_jitter_output_curve(curve, bounds))
    return result


def pef_rto_bound(alpha_ref: ConcaveCurve, bounds: DelayInterval, lmin):
    """Worst-case reordering time offset at a PEF output.

    Two data units can only swap if the earlier one took the slow branch and
    the later one the fast branch, and the reference spacing of two units of
    at least lmin each eats into the jitter: |D - d - alpha_ref_inv(2 lmin)|+.
    """
    lmin = parse_rational(lmin)
    if lmin <= 0:
        raise ValueError("minimum data unit size must be > 0")
    if is_unbounded(bounds.hi):
        return UNBOUNDED
    spacing = lower_pseudo_inverse(alpha_ref, 2 * lmin)
    if is_unbounded(spacing):
        return Fraction(0)  # the profile never admits two units in flight
    return max(Fraction(0), bounds.width - spacing)


def rbo_from_rto(alpha_local: ConcaveCurve, rto):
    """Reordering byte offset from a time offset: data that can arrive while
    a late unit is still missing.  Zero reordering time means zero bytes."""
    if is_unbounded(rto):
        if alpha_local.min_rate > 0:
            return UNBOUNDED
        return alpha_local.segments[0].burst  # flat curve: cap is the burst
    rto = parse_rational(rto)
    if rto < 0:
        raise ValueError("reordering time offset must be >= 0")
    return alpha_local.eval(rto)
