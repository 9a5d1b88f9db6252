"""Builders for reference trajectories.

Three families:

* ``toy_scenario``: the toy runs of the two-branch toy setup (short branch
  [0, 1], long branch [6, 7], unit-rate unit-burst flow) that exercise
  elimination, re-sequencing, and per-flow regulation one feature at a time.
  They are the bundled ``scn-toy-*.json`` scenarios, loaded from the package.
* ``gen_tightness_trajectory``: a schedule on two lossy branches that is
  compliant at the source yet lands the full worst-case burst at a single
  instant after elimination, matching the analyzer's output burst exactly.
* ``gen_adversarial_ir``: a periodic multi-flow schedule whose interleaved
  regulator backlog grows without bound, witnessing that no finite delay
  bound exists for that placement.
"""

import math
from fractions import Fraction

from ..minplus import ConcaveCurve, _on_grid, parse_rational
from ..regulators import ir_q_min
from ..topology import REG_INTERLEAVED, DelayInterval, bundled_dir
from .engine import (
    DROP,
    FlowProfile,
    PathSpec,
    Pipeline,
    PofSpec,
    RegSpec,
    Scenario,
    SourceUnit,
    _no_gc,
    load_scenario,
)

TOY_VARIANTS = ("double-rate", "rto", "pof", "pfr", "pof-pfr", "lossy")

# the units `gen_tightness_trajectory` sends on the fast branch after the
# front, so the worst burst is followed by traffic at the source's rate
TAIL = 3


def _two_branches(rate, burst, d1, D1, d2, D2) -> tuple:
    """The rate, the burst and the bounds [d1, D1], [d2, D2] of two branches,
    parsed and checked, the branch of the smaller upper bound (then lower
    bound) first."""
    r = parse_rational(rate)
    b = parse_rational(burst)
    d1, D1, d2, D2 = (parse_rational(v) for v in (d1, D1, d2, D2))
    if r <= 0 or b <= 0:
        raise ValueError("need a positive rate and burst")
    for lo, hi in ((d1, D1), (d2, D2)):
        if lo < 0 or lo > hi:
            raise ValueError("branch bounds must satisfy 0 <= min <= max")
    if (D1, d1) > (D2, d2):
        return r, b, d2, D2, d1, D1
    return r, b, d1, D1, d2, D2


def toy_scenario(variant: str, timeout=None) -> Scenario:
    """One of the toy runs; see TOY_VARIANTS for the accepted names.

    Each is the bundled ``scn-toy-<variant>.json``, except ``pof``: the
    ``rto`` run with a re-sequencer of timeout `timeout` added.  A given
    `timeout` replaces that of a run's re-sequencer; a run without one
    ignores it."""
    if variant not in TOY_VARIANTS:
        raise ValueError(f"unknown toy variant {variant!r}")
    name = "scn-toy-rto.json" if variant == "pof" else f"scn-toy-{variant}.json"
    scenario = load_scenario(bundled_dir().joinpath(name))
    pipe = scenario.pipeline
    if variant == "pof":
        pipe = pipe._replace(pof=PofSpec(timeout))
    elif timeout is not None and pipe.pof is not None:
        pipe = pipe._replace(pof=pipe.pof._replace(timeout=timeout))
    scenario.name = f"toy-{variant}"
    scenario.pipeline = pipe
    scenario.meta = {"variant": variant}
    return scenario


def gen_tightness_trajectory(rate, burst, d1, D1, d2, D2) -> Scenario:
    """Worst-burst schedule for an eliminator fed by two lossy branches.

    The source stays exactly on the token-bucket envelope (rate, burst) and
    every replicate delay sits inside its branch bounds, yet all the front
    units reach the eliminator at one instant.  The scenario meta records the
    expected burst and the instant it lands at.
    """
    r, b, d1, D1, d2, D2 = _two_branches(rate, burst, d1, D1, d2, D2)

    units = []  # (name, gen, size, path_index, delay)

    def emit(name, gen, size, pidx, delay):
        units.append((name, gen, size, pidx, delay))

    step = b / r
    if d2 - D1 >= step:
        case = 1
        chi1 = max(1, math.ceil(r * (D1 - d1) / b))
        chi2 = max(1, math.ceil(r * (D2 - d2) / b))
        psi = math.ceil((r * (d2 - D1) - b) / b)

        emit("i2", Fraction(0), b, 1, D2)
        for k in range(1, chi2):
            emit(f"b2_{k}", k * step, b, 1, D2 - k * step)
        emit(f"b2_{chi2}", D2 - d2, r * (D2 - d2) - (chi2 - 1) * b, 1, d2)
        for k in range(1, psi):
            emit(f"s2_{k}", (D2 - d2) + k * step, b, 1, d2)
        if psi >= 1:
            emit(f"s2_{psi}", D2 - D1 - step, r * (d2 - D1) - psi * b, 1, d2)

        emit("i1", D2 - D1, b, 0, D1)
        for k in range(1, chi1):
            emit(f"b1_{k}", (D2 - D1) + k * step, b, 0, D1 - k * step)
        emit(f"b1_{chi1}", D2 - d1, r * (D1 - d1) - (chi1 - 1) * b, 0, d1)
        for k in range(1, psi):
            emit(f"s1_{k}", (D2 - d1) + k * step, b, 0, d1)
        if psi >= 1:
            emit(f"s1_{psi}", D2 + d2 - D1 - d1 - step, r * (d2 - D1) - psi * b, 0, d1)
        for n in range(TAIL):
            emit(f"x_{n + 1}", (D2 + d2 - D1 - d1) + n * step, b, 0, d1)
        expected = 2 * b + r * (D1 - d1) + r * (D2 - d2)
    else:
        case = 2
        # saturate the envelope with back-to-back chunks; hand over from the
        # slow branch to the fast branch once the needed delay drops below d2
        emit("c_0", Fraction(0), b, 1, D2)
        if d2 > D1:
            # delays in (D1, d2) exist on neither branch: a bridge unit of
            # exactly r*(d2 - D1) spans that hole without leaving the envelope
            leg2 = r * (D2 - d2)
            if leg2 > 0:
                k2 = math.ceil(leg2 / b)
                for k in range(1, k2 + 1):
                    off = k * step if k < k2 else D2 - d2
                    size = b if k < k2 else leg2 - (k2 - 1) * b
                    emit(f"c_{k}", off, size, 1, D2 - off)
            emit("bridge", D2 - D1, r * (d2 - D1), 0, D1)
            leg1 = r * (D1 - d1)
            if leg1 > 0:
                k1 = math.ceil(leg1 / b)
                for k in range(1, k1 + 1):
                    off = (D2 - D1) + k * step if k < k1 else D2 - d1
                    size = b if k < k1 else leg1 - (k1 - 1) * b
                    emit(f"e_{k}", off, size, 0, D2 - off)
        else:
            extra = r * (D2 - d1)
            if extra > 0:
                kk = math.ceil(extra / b)
                for k in range(1, kk + 1):
                    off = k * step if k < kk else D2 - d1
                    size = b if k < kk else extra - (kk - 1) * b
                    delay = D2 - off
                    emit(f"c_{k}", off, size, 1 if delay >= d2 else 0, delay)
        for n in range(TAIL):
            emit(f"x_{n + 1}", (D2 - d1) + (n + 1) * step, b, 0, d1)
        expected = b + r * (D2 - d1)

    sources = []
    p_sched = [{}, {}]
    for name, gen, size, pidx, delay in units:
        sources.append(SourceUnit("f", name, gen, size))
        p_sched[pidx][("f", name)] = delay
        p_sched[1 - pidx][("f", name)] = DROP

    scenario = Scenario(
        name=f"tightness-case{case}",
        sources=sources,
        paths=[
            PathSpec("p1", DelayInterval(d1, D1), p_sched[0]),
            PathSpec("p2", DelayInterval(d2, D2), p_sched[1]),
        ],
        pipeline=Pipeline(pef=True),
        flows={"f": FlowProfile(arrival=ConcaveCurve([(r, b)]))},
        allow_zero_size=True,
        meta={
            "case": case,
            "expected_burst": expected,
            "burst_instant": D2,
        },
    )
    return scenario


@_no_gc
def gen_adversarial_ir(rate, burst, d1, D1, d2, D2, q: int, periods: int = 3, x1=0) -> Scenario:
    """Unbounded-backlog schedule for an interleaved regulator after elimination.

    Builds q flows, each sending a pair of replicated units per period; branch
    losses are arranged so the regulator keeps paying one full burst of other
    flows between consecutive units of flow 1.  Requires q at least the
    instability threshold for the branch bounds; smaller q is rejected.  The
    sources come in emission order, flow by flow at one instant.
    """
    r, b, d1, D1, d2, D2 = _two_branches(rate, burst, d1, D1, d2, D2)
    x1 = parse_rational(x1)
    q_min = ir_q_min(r, b, DelayInterval(d1, D1), DelayInterval(d2, D2))
    if q < q_min:
        raise ValueError(f"need at least {q_min} flows to destabilize these branches")
    if periods < 1:
        raise ValueError("need at least one period")

    qf = Fraction(q)
    if D1 < d2:
        J = d2 - D1
        D, d = d2, D1
        m1_path, m1_delay = 1, d2
        m2_path, m2_delay = 0, D1
    elif d2 < D1:
        J = min((qf - 2) * b / (2 * r), D1 - d2) / 2
        D, d = D1, D1 - J
        m1_path, m1_delay = 0, D1
        m2_path, m2_delay = 1, d
    elif d2 < D2:
        # equal bounds; forward the first replicate slightly later than D1
        d2_eff = (d2 + min(D2, D1 + b / (2 * r))) / 2
        J = d2_eff - D1
        D, d = d2_eff, D1
        m1_path, m1_delay = 1, d2_eff
        m2_path, m2_delay = 0, D1
    elif d1 < D1:
        J = min((qf - 2) * b / (2 * r), D1 - d1) / 2
        D, d = D1, D1 - J
        m1_path, m1_delay = 1, D1
        m2_path, m2_delay = 0, d
    else:
        raise ValueError("both branches have the same constant delay; no divergence exists")

    margin = min(b / r - 2 * J / (qf - 2), J)
    eps = margin / 2
    big_i = max(qf * J / (qf - 2), b / r)
    phi = big_i - J + eps
    tau = q * phi

    # unit k of flow i is emitted at x1 + (i - 1) phi + k tau (+ I for m2):
    # add the numerators on their integer grid
    den, (x1_n, phi_n, tau_n, i_n) = _on_grid([x1, phi, tau, big_i])
    # phi, tau and I are positive, so the first unit is the earliest: its
    # checks cover every unit, and the loop builds them unchecked
    SourceUnit("f1", "m1_0", x1, b)
    names = [(f"m1_{k}", f"m2_{k}") for k in range(periods)]  # each period's units
    legs = ((0, m1_path, m1_delay), (i_n, m2_path, m2_delay))
    unit = SourceUnit._unchecked
    sources = []
    ticks = []  # each source's emission time, in 1/den time units
    sched = [{}, {}]
    flows = {}
    curve = ConcaveCurve([(r, b)])
    for i in range(1, q + 1):
        fid = f"f{i}"
        flows[fid] = FlowProfile(arrival=curve, lmin=b, lmax=b)
        x_i = x1_n + (i - 1) * phi_n
        for k, pair in enumerate(names):
            at = x_i + k * tau_n
            for name, (offset, pidx, delay) in zip(pair, legs):
                ticks.append(at + offset)
                sources.append(unit(fid, name, Fraction(ticks[-1], den), b))
                sched[pidx][(fid, name)] = delay
                sched[1 - pidx][(fid, name)] = DROP
    # list the sources in emission order, flow by flow at one instant, so
    # that whoever ranks them by time sorts a sorted list
    sources = [sources[j] for j in sorted(range(len(ticks)), key=ticks.__getitem__)]
    del ticks

    return Scenario(
        name="adversarial-ir",
        sources=sources,
        paths=[
            PathSpec("p1", DelayInterval(d1, D1), sched[0]),
            PathSpec("p2", DelayInterval(d2, D2), sched[1]),
        ],
        pipeline=Pipeline(
            pef=True,
            reg=RegSpec(REG_INTERLEAVED, {f"f{i}": curve for i in range(1, q + 1)}),
        ),
        flows=flows,
        meta={
            "q": q,
            "q_min": q_min,
            "D": D,
            "d": d,
            "J": J,
            "I": big_i,
            "phi": phi,
            "tau": tau,
            "eps": eps,
            "divergence_step": q * (b / r - phi),
        },
    )
