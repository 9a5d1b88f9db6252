"""Fixed-point worst-case delay analysis over a network of FIFO output ports.

Every flow carries an arrival curve that is propagated vertex by vertex: the
port's delay interval comes from the horizontal deviation of the aggregate
curve against the port's service curve, each flow's output curve is its input
curve spread by the port jitter, and the redundancy functions transform curves
and accumulated delay intervals at the vertices that host elimination,
re-sequencing, or shaping.

On feed-forward networks one sweep in topological order reaches the fixed
point.  With cyclic dependencies the sweep is iterated; to keep exact
arithmetic from chasing a geometric limit forever, burst terms are rounded up
onto a fixed grid (rounding up keeps every intermediate state a valid
over-approximation), so the iteration either stabilizes (exact equality
between sweeps), exceeds the burst cap (Diverged), or hits the iteration cap.

The structure of each flow (diamond ancestors, anchors, the functions placed
at each vertex) is computed once per analysis.  Every sweep records the
per-site reports as it goes, and the report keeps those of the final sweep:
after convergence that sweep changed nothing, so they describe the fixed
point; a cut-off run (Diverged, IterationCap) sweeps once more first.

Two models of the eliminator are supported: ``tight`` constrains the output
by every diamond-ancestor curve, ``intuitive`` keeps the plain sum of the
replicate curves as if nothing were dropped.
"""

import csv
import io
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .minplus import (
    UNBOUNDED,
    ConcaveCurve,
    add,
    curve_leq,
    h_dev,
    is_unbounded,
    parse_rational,
    rational_str,
    round_bursts_up,
)
from .redundancy import (
    lossy_jitter_output_curve,
    pef_output_curve,
    pef_rto_bound,
    pof_output_curve,
    rbo_from_rto,
)
from .regulators import (
    RATE_OVERLOAD,
    UNPROVEN_CONFIGURATION,
    RegulatorVerdict,
    ir_after_pef_verdict,
    pfr_after_pef_bounds,
    pfr_after_pef_rto,
    preof_for_free_bounds,
)
from .topology import (
    PEF,
    POF,
    REG,
    REG_PER_FLOW,
    DelayInterval,
    NetworkSpec,
    diamond_ancestors,
    ep_vertices,
    path_delay_bounds,
)

MODEL_TIGHT = "tight"
MODEL_INTUITIVE = "intuitive"

CONVERGED = "Converged"
DIVERGED = "Diverged"
ITERATION_CAP = "IterationCap"

ITER_CAP_ENV = "REDCALC_ITER_CAP"
DEFAULT_ITER_CAP = 1000
DEFAULT_BURST_CAP = Fraction(10**9)

# burst grid for cyclic iteration; feed-forward sweeps stay exact
BURST_QUANTUM = Fraction(1, 2**20)


def vertex_delay(vertex, aggregate: Optional[ConcaveCurve]) -> DelayInterval:
    """Delay interval of one output port under the given aggregate curve.

    A port without a service curve is a pure delay element and keeps its
    technological interval regardless of load.  With a service curve the
    queueing term is the horizontal deviation of the aggregate on top of the
    minimum technological latency; `aggregate=None` means no traffic crosses
    the port, so only the minimum latency remains.  Overload (aggregate rate
    above the long-term service rate) makes the upper endpoint unbounded.
    """
    tech = vertex.tech
    if vertex.service is None:
        return tech
    if aggregate is None:
        return DelayInterval(tech.lo, tech.lo)
    dev = h_dev(aggregate, vertex.service)
    if is_unbounded(dev):
        return DelayInterval(tech.lo, UNBOUNDED)
    return DelayInterval(tech.lo, tech.lo + dev)


@dataclass
class FlowResult:
    flow: str
    destination: str
    interval: DelayInterval
    deadline: Optional[Fraction]
    verdict: str  # met | violated | unbounded | ok

    def to_json(self) -> dict:
        return {
            "flow": self.flow,
            "destination": self.destination,
            "interval": self.interval.to_json(),
            "deadline": rational_str(self.deadline) if self.deadline is not None else None,
            "verdict": self.verdict,
        }


def _curve_json(curve):
    return curve.to_json() if curve is not None else None


def _opt_rational_str(x):
    return rational_str(x) if x is not None else None


@dataclass
class AnalysisReport:
    model: str
    lossless: bool
    status: str
    iterations: int
    results: list  # FlowResult
    vertex_delays: dict  # vertex -> DelayInterval
    # site records of the final sweep, in sweep order: one dict per
    # (placement, flow), except a PEF whose input is cut off; the keys are
    # those of to_json
    pef_sites: list
    pof_sites: list
    reg_sites: list
    notes: list  # cut-off notes, then the final sweep's, then overloaded ports

    def result_for(self, flow: str, destination: str) -> FlowResult:
        for r in self.results:
            if r.flow == flow and r.destination == destination:
                return r
        raise KeyError((flow, destination))

    def site(self, sites: str, vertex: str, flow: str) -> dict:
        for s in getattr(self, sites):
            if s["vertex"] == vertex and s["flow"] == flow:
                return s
        raise KeyError((sites, vertex, flow))

    def any_violation(self) -> bool:
        return any(r.verdict in ("violated", "unbounded") for r in self.results)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "lossless": self.lossless,
            "status": self.status,
            "iterations": self.iterations,
            "results": [r.to_json() for r in self.results],
            "vertex_delays": {v: d.to_json() for v, d in sorted(self.vertex_delays.items())},
            "pef_sites": [
                {
                    "vertex": s["vertex"],
                    "flow": s["flow"],
                    "reference": s["reference"],
                    "tight_curve": _curve_json(s["tight_curve"]),
                    "intuitive_curve": _curve_json(s["intuitive_curve"]),
                    "rto_bound": rational_str(s["rto_bound"]),
                    "rbo_bound": rational_str(s["rbo_bound"]),
                }
                for s in self.pef_sites
            ],
            "pof_sites": [
                {
                    "vertex": s["vertex"],
                    "flow": s["flow"],
                    "reference": s["reference"],
                    "timeout": _opt_rational_str(s["timeout"]),
                    "required_timeout": rational_str(s["required_timeout"]),
                    "required_buffer": rational_str(s["required_buffer"]),
                    "output_curve": _curve_json(s["output_curve"]),
                }
                for s in self.pof_sites
            ],
            "reg_sites": [
                {
                    "vertex": s["vertex"],
                    "flow": s["flow"],
                    "mode": s["mode"],
                    "rto_bound": _opt_rational_str(s["rto_bound"]),
                    "verdict": s["verdict"].to_json(),
                }
                for s in self.reg_sites
            ],
            "notes": list(self.notes),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["flow", "destination", "model", "lower", "upper", "deadline", "verdict"])
        for r in self.results:
            w.writerow(
                [
                    r.flow,
                    r.destination,
                    self.model,
                    rational_str(r.interval.lo),
                    rational_str(r.interval.hi),
                    rational_str(r.deadline) if r.deadline is not None else "",
                    r.verdict,
                ]
            )
        return buf.getvalue()


def _union_graph(network: NetworkSpec) -> dict:
    children = {v: set() for v in network.vertices}
    for f in network.flows.values():
        for u, v in f.edges:
            children[u].add(v)
    return children


def _sweep_order(network: NetworkSpec):
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


def _total(curves: list):
    """Sum of the curves in one `add`; None for no curve."""
    if len(curves) < 2:
        return curves[0] if curves else None
    return add(*curves)


class _Analyzer:
    def __init__(self, network, model, lossless, burst_cap):
        self.net = network
        self.model = model
        self.lossless = lossless
        self.burst_cap = burst_cap
        self.quantize = False
        self.notes = []
        self.curves = {}  # (flow, vertex) -> curve | None
        self.vertex_delays = {}  # vertex -> DelayInterval
        self.iterations = 0
        self.status = CONVERGED
        self._crossing = {v: [] for v in network.vertices}
        self._placed = {v: [] for v in network.vertices}
        self._function = {}  # (kind, flow, vertex) -> placement, one at most
        for p in network.placements:
            self._placed[p.vertex].append(p)
            for fid in p.flows:
                self._function[(p.kind, fid, p.vertex)] = p
        self._topo_index = {}
        self._ancestors = {}  # (flow, vertex) -> sorted diamond ancestors but itself
        self._anchor = {}  # (flow, vertex) -> the last of those in flow order
        self._disorder = {}  # flow -> topo indexes of EP and PEF vertices
        self._resequence = {}  # flow -> topo indexes of POF vertices
        for fid in sorted(network.flows):
            flow = network.flows[fid]
            order = flow.order
            idx = {v: i for i, v in enumerate(order)}
            self._topo_index[fid] = idx
            eps = ep_vertices(network, fid)
            dominators = diamond_ancestors(network, fid)
            self._disorder[fid] = [
                i for i, v in enumerate(order) if v in eps or (PEF, fid, v) in self._function
            ]
            self._resequence[fid] = [
                i for i, v in enumerate(order) if (POF, fid, v) in self._function
            ]
            for v in order:
                self._crossing[v].append(fid)
                if v != flow.source:
                    # the source is a non-EP ancestor of every other vertex
                    ancestors = sorted(dominators[v] - {v})
                    self._ancestors[(fid, v)] = ancestors
                    self._anchor[(fid, v)] = max(ancestors, key=idx.__getitem__)

    # -- structural helpers --------------------------------------------------

    def _bounds(self, fid: str, a: str, v: str) -> DelayInterval:
        return path_delay_bounds(self.net.flows[fid].edges, a, v, self.vertex_delays)

    def _reordering_inside(self, fid: str, a: str, v: str) -> bool:
        """Can units of the flow reach v's regulator out of source order,
        considering only the section after a's output?

        Disorder comes from coexisting duplicates (EP vertices) or from an
        eliminator output; a later re-sequencer on the same stretch restores
        source order.  A POF at the same vertex as the PEF runs after it.
        """
        idx = self._topo_index[fid]
        lo, hi = idx[a], idx[v]
        disorder = max((i for i in self._disorder[fid] if lo < i <= hi), default=-1)
        if disorder < 0:
            return False
        return not any(disorder <= i <= hi for i in self._resequence[fid])

    def _capped(self, curve):
        if curve is not None and curve.min_burst > self.burst_cap:
            if self.status == CONVERGED:
                self.status = DIVERGED
                self.notes.append("burst cap exceeded during iteration")
            return None
        return curve

    def _round_up(self, curve):
        if curve is None or not self.quantize:
            return curve
        return round_bursts_up(curve, BURST_QUANTUM)

    # -- one Gauss-Seidel sweep ----------------------------------------------

    def sweep(self, order) -> bool:
        """One pass in `order`; the site records and the timeout notes it
        leaves behind describe this pass only."""
        self.pef_sites = []
        self.pof_sites = []
        self.reg_sites = []
        self.sweep_notes = []
        changed = False
        for v in order:
            changed |= self._process_vertex(v)
        return changed

    def _input_curve(self, fid: str, v: str):
        """Curve offered to v's local pipeline: the arrival curve at the flow
        source, otherwise the sum over the flow parents (duplicates add up)."""
        flow = self.net.flows[fid]
        if v == flow.source:
            return flow.arrival
        parts = [self.curves.get((fid, p)) for p in flow.parents[v]]
        if any(c is None for c in parts):
            return None
        return _total(parts)

    def _process_vertex(self, v: str) -> bool:
        net = self.net
        post = {}
        for fid in self._crossing[v]:
            post[fid] = self._input_curve(fid, v)

        for placement in self._placed[v]:
            for fid in sorted(placement.flows):
                if placement.kind == PEF:
                    post[fid] = self._apply_pef(fid, v, post[fid])
                elif placement.kind == POF:
                    post[fid] = self._apply_pof(fid, v, placement, post[fid])
                else:
                    post[fid] = self._apply_reg(fid, v, placement)

        if any(c is None for c in post.values()):
            spec = net.vertices[v]
            vdel = spec.tech if spec.service is None else DelayInterval(
                spec.tech.lo, UNBOUNDED
            )
        else:
            vdel = vertex_delay(net.vertices[v], _total(list(post.values())))

        changed = self.vertex_delays.get(v) != vdel
        self.vertex_delays[v] = vdel

        for fid, cur in post.items():
            if cur is None or is_unbounded(vdel.hi):
                out = None
            else:
                out = self._capped(self._round_up(lossy_jitter_output_curve(cur, vdel)))
            if self.curves.get((fid, v)) != out:
                changed = True
            self.curves[(fid, v)] = out
        return changed

    # -- local function transforms ---------------------------------------------

    def _apply_pef(self, fid, v, alpha_in):
        if alpha_in is None:
            return None
        anchor = self._anchor[(fid, v)]
        rto = rbo = UNBOUNDED
        ancestors = []
        for a in self._ancestors[(fid, v)]:
            curve_a = self.curves.get((fid, a))
            if curve_a is None:
                continue
            bounds = self._bounds(fid, a, v)
            if is_unbounded(bounds.hi):
                continue
            ancestors.append((curve_a, bounds))
            if a == anchor:
                rto = pef_rto_bound(curve_a, bounds, self.net.flows[fid].lmin)
        tight = pef_output_curve(alpha_in, ancestors)
        out = tight if self.model == MODEL_TIGHT else alpha_in
        if not is_unbounded(rto):
            rbo = rbo_from_rto(out, rto)
        self.pef_sites.append(
            {
                "vertex": v,
                "flow": fid,
                "reference": anchor,
                "tight_curve": tight,
                "intuitive_curve": alpha_in,
                "rto_bound": rto,
                "rbo_bound": rbo,
            }
        )
        return out

    def _apply_pof(self, fid, v, placement, alpha_in):
        """`alpha_in` is the curve at the re-sequencer input, after any
        eliminator in front of it at v."""
        ref = placement.reference
        ref_curve = self.curves.get((fid, ref))
        bounds = self._bounds(fid, ref, v)
        out = None
        rto = rbo = UNBOUNDED
        if ref_curve is not None and not is_unbounded(bounds.hi):
            if self.lossless:
                out = pof_output_curve(ref_curve, bounds, lossless=True)
            elif placement.timeout is not None:
                out = pof_output_curve(
                    ref_curve, bounds, timeout=placement.timeout, lossless=False
                )
            else:
                self.sweep_notes.append(
                    f"re-sequencer for {fid} at {v}: lossy traffic needs a finite timeout"
                )
            rto = pef_rto_bound(ref_curve, bounds, self.net.flows[fid].lmin)
            if alpha_in is not None:
                rbo = rbo_from_rto(alpha_in, rto)
        self.pof_sites.append(
            {
                "vertex": v,
                "flow": fid,
                "reference": ref,
                "timeout": placement.timeout,
                "required_timeout": rto,
                "required_buffer": rbo,
                "output_curve": out,
            }
        )
        return self._capped(out)

    def _apply_reg(self, fid, v, placement):
        sigma = placement.shaping[fid]
        ref_curve = self.curves.get((fid, placement.reference))
        verdict, rto = self._reg_verdict(fid, v, placement, ref_curve)
        self.reg_sites.append(
            {
                "vertex": v,
                "flow": fid,
                "mode": placement.mode,
                "rto_bound": rto,
                "verdict": verdict,
            }
        )
        # the regulator output conforms to sigma even when its delay does not
        # admit a bound, so the shaping curve always propagates downstream
        return self._capped(sigma)

    def _reg_verdict(self, fid, v, placement, ref_curve):
        """Through-delay verdict for the section reference -> regulator output."""
        flow = self.net.flows[fid]
        ref = placement.reference
        sigma = placement.shaping[fid]
        bounds = self._bounds(fid, ref, v)
        if ref_curve is None or is_unbounded(bounds.hi):
            return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False), None
        if not curve_leq(ref_curve, sigma):
            # shaping below the traffic the flow provably carries at the
            # reference: a rate deficit diverges, anything else is unproven
            if ref_curve.min_rate > sigma.min_rate:
                return RegulatorVerdict.unbounded(RATE_OVERLOAD), None
            return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False), None

        pof = self._function.get((POF, fid, v))
        if pof is not None:
            try:
                eff = preof_for_free_bounds(bounds, timeout=pof.timeout, lossless=self.lossless)
            except ValueError:
                return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False), None
            return RegulatorVerdict.of_interval(eff), None

        if not self._reordering_inside(fid, ref, v):
            # FIFO section in front: the regulator never delays the worst unit
            return RegulatorVerdict.of_interval(bounds), None

        pef_rto = pef_rto_bound(ref_curve, bounds, flow.lmin)
        if placement.mode == REG_PER_FLOW:
            rto = pfr_after_pef_rto(pef_rto, bounds)
            return RegulatorVerdict.of_interval(pfr_after_pef_bounds(sigma, bounds)), rto

        # interleaved: one queue, so stability depends on every flow sharing it
        shared = sorted(placement.flows)
        reordered = [g for g in shared if self._reordering_inside(g, placement.reference, v)]
        if len(reordered) == 1 and len(shared) == 1:
            rto = pfr_after_pef_rto(pef_rto, bounds)
            return RegulatorVerdict.of_interval(pfr_after_pef_bounds(sigma, bounds)), rto
        branch_lists = []
        for g in reordered:
            branches = []
            for parent in sorted(self.net.flows[g].parents[v]):
                leg = path_delay_bounds(
                    self.net.flows[g].edges,
                    placement.reference,
                    parent,
                    self.vertex_delays,
                )
                branches.append(leg.plus(self.vertex_delays[parent]))
            branch_lists.append(sorted((b.lo, b.hi) for b in branches))
        if any(bl != branch_lists[0] for bl in branch_lists[1:]):
            return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False), None
        verdict = ir_after_pef_verdict(
            {g: placement.shaping[g] for g in reordered},
            [DelayInterval(lo, hi) for lo, hi in branch_lists[0]],
            {g: self.net.flows[g].lmin for g in reordered},
            bounds,
        )
        return verdict, None

    # -- end-to-end composition -----------------------------------------------

    def compose(self) -> list:
        results = []
        for fid in sorted(self.net.flows):
            flow = self.net.flows[fid]
            cum = self._flow_cumulative(fid)
            for dest in sorted(flow.destinations):
                interval = cum[dest]
                deadline = flow.deadlines.get(dest)
                if is_unbounded(interval.hi):
                    verdict = "unbounded"
                elif deadline is None:
                    verdict = "ok"
                elif interval.hi <= deadline:
                    verdict = "met"
                else:
                    verdict = "violated"
                results.append(FlowResult(fid, dest, interval, deadline, verdict))
        return results

    def _flow_cumulative(self, fid: str) -> dict:
        """Entry-to-output delay interval at each vertex of the flow.

        Each vertex is anchored to an upstream cut point: the configured
        reference for re-sequencers and regulators, the nearest diamond
        ancestor otherwise, so parallel branches are bracketed by the hull of
        their path delays instead of a per-branch sum.
        """
        flow = self.net.flows[fid]
        vdel = self.vertex_delays
        cum = {}
        for v in flow.order:
            if v == flow.source:
                cum[v] = vdel[v]
                continue
            pof = self._function.get((POF, fid, v))
            reg = self._function.get((REG, fid, v))
            if pof is not None:
                anchor = pof.reference
            elif reg is not None:
                anchor = reg.reference
            else:
                anchor = self._anchor[(fid, v)]
            base = self._bounds(fid, anchor, v)
            if pof is not None:
                if self.lossless:
                    section = base
                elif pof.timeout is not None:
                    section = DelayInterval(base.lo, base.hi + pof.timeout)
                else:
                    section = DelayInterval(base.lo, UNBOUNDED)
            elif reg is not None:
                ref_curve = self.curves.get((fid, anchor))
                verdict, _ = self._reg_verdict(fid, v, reg, ref_curve)
                if verdict.bounded:
                    section = verdict.delay
                else:
                    section = DelayInterval(base.lo, UNBOUNDED)
            else:
                section = base
            cum[v] = cum[anchor].plus(section).plus(vdel[v])
        return cum


def analyze(
    network: NetworkSpec,
    model: str = MODEL_TIGHT,
    lossless: bool = False,
    iter_cap: Optional[int] = None,
    burst_cap=None,
) -> AnalysisReport:
    """Propagate curves to a fixed point and report per-destination intervals.

    `lossless` asserts that no data unit is ever lost on the analyzed paths,
    which sharpens the re-sequencer transforms; without it a re-sequencer
    needs a configured timeout for the flow to keep a bounded delay.
    The sweep count is capped by `iter_cap` (default from the REDCALC_ITER_CAP
    environment variable, falling back to 1000) and growing states are cut
    off once a curve's burst exceeds `burst_cap`.
    """
    if model not in (MODEL_TIGHT, MODEL_INTUITIVE):
        raise ValueError(f"unknown analysis model {model!r}")
    if iter_cap is None:
        iter_cap = int(os.environ.get(ITER_CAP_ENV, DEFAULT_ITER_CAP))
    burst_cap = DEFAULT_BURST_CAP if burst_cap is None else parse_rational(burst_cap)

    an = _Analyzer(network, model, lossless, burst_cap)
    order, acyclic = _sweep_order(network)

    # optimistic start: plain source curves everywhere, ports at zero queueing
    for v, spec in network.vertices.items():
        an.vertex_delays[v] = (
            spec.tech if spec.service is None else DelayInterval(spec.tech.lo, spec.tech.lo)
        )
    for fid, flow in network.flows.items():
        for v in flow.vertices:
            an.curves[(fid, v)] = flow.arrival

    if acyclic:
        # parents settle before children, so one sweep is the fixed point
        an.sweep(order)
        an.iterations = 1
    else:
        an.quantize = True
        for i in range(1, iter_cap + 1):
            changed = an.sweep(order)
            an.iterations = i
            if an.status == DIVERGED or not changed:
                break
        else:
            an.status = ITERATION_CAP
            an.notes.append(f"no fixed point within {iter_cap} sweeps")

    # a converged sweep changed nothing, so its site records are those of the
    # fixed point; a cut-off run sweeps once more to carry the cut-off (None)
    # curves around the cycles before its records are read
    if an.status != CONVERGED:
        an.sweep(order)
    an.notes += an.sweep_notes

    if an.status == CONVERGED:
        overloaded = sorted(
            v for v, d in an.vertex_delays.items() if is_unbounded(d.hi)
        )
        if overloaded:
            an.status = DIVERGED
            for v in overloaded:
                an.notes.append(f"aggregate exceeds the service rate at {v}")

    return AnalysisReport(
        model=model,
        lossless=lossless,
        status=an.status,
        iterations=an.iterations,
        results=an.compose(),
        vertex_delays=dict(an.vertex_delays),
        pef_sites=an.pef_sites,
        pof_sites=an.pof_sites,
        reg_sites=an.reg_sites,
        notes=an.notes,
    )


def compare_models(network: NetworkSpec, lossless: bool = False, **kw) -> dict:
    """Run both eliminator models and pair the per-destination intervals."""
    tight = analyze(network, MODEL_TIGHT, lossless, **kw)
    intuitive = analyze(network, MODEL_INTUITIVE, lossless, **kw)
    pairs = {}
    for r in tight.results:
        other = intuitive.result_for(r.flow, r.destination)
        pairs[(r.flow, r.destination)] = (r.interval, other.interval)
    return {"tight": tight, "intuitive": intuitive, "pairs": pairs}
