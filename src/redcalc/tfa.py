"""Fixed-point worst-case delay analysis over a network of FIFO output ports.

Every flow carries an arrival curve that is propagated vertex by vertex: the
port's delay interval comes from the horizontal deviation of the aggregate
curve against the port's service curve, each flow's output curve is its input
curve spread by the port jitter, and the redundancy functions transform curves
and accumulated delay intervals at the vertices that host elimination,
re-sequencing, or shaping.

The vertices are taken one strongly connected component (SCC) of the union
graph at a time, in topological order.  A vertex on no cycle is processed
once, after its inputs have settled.  A cyclic component is swept in sorted
order until a pass changes nothing; as in Bourdoncle's chaotic iteration, a
pass processes only the dirty members, those that read an output changed
since their last processing.  Exact arithmetic could chase a geometric limit
forever, so a network with a cycle rounds burst terms up onto a fixed grid
(rounding up keeps every state a valid over-approximation), and a component
either stabilizes (exact equality between passes), exceeds the burst cap
(Diverged), or runs `iter_cap` passes (IterationCap).  A cut-off component
gets one more pass; the components after it are still processed.

The structure of each flow (diamond ancestors, anchors, the functions placed
at each vertex, the readers of each vertex) is computed once per analysis.
Each vertex keeps the site reports and timeout notes of its last processing;
after convergence they describe the fixed point.

Two models of the eliminator are supported: ``tight`` constrains the output
by every diamond-ancestor curve, ``intuitive`` keeps the plain sum of the
replicate curves as if nothing were dropped.
"""

import csv
import io
from collections import ChainMap
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
    to_jsonable,
)
from .redundancy import (
    lossy_jitter_output_curve,
    pef_output_curve,
    pef_rto_bound,
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
    _section_plan,
    diamond_ancestors,
    ep_vertices,
    path_delay_bounds,
)

MODEL_TIGHT = "tight"
MODEL_INTUITIVE = "intuitive"

CONVERGED = "Converged"
DIVERGED = "Diverged"
ITERATION_CAP = "IterationCap"

DEFAULT_ITER_CAP = 1000
DEFAULT_BURST_CAP = Fraction(10**9)

NO_DELAY = DelayInterval(0, 0)

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
        return to_jsonable(vars(self))  # the fields, in declaration order


@dataclass
class AnalysisReport:
    model: str
    lossless: bool
    status: str
    iterations: int
    results: list  # FlowResult
    vertex_delays: dict  # vertex -> DelayInterval
    # site records of each vertex's last processing, in sweep order: one dict
    # per (placement, flow), except a PEF whose input is cut off; to_json
    # writes them as they are, key by key
    pef_sites: list
    pof_sites: list
    reg_sites: list
    notes: list  # cut-off notes, then the vertices' timeout notes, then overloaded ports

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
        # the fields in declaration order, the port delays sorted by vertex
        return to_jsonable(
            {**vars(self), "vertex_delays": dict(sorted(self.vertex_delays.items()))}
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["flow", "destination", "model", "lower", "upper", "deadline", "verdict"])
        for r in self.results:
            lo, hi = rational_str(r.interval.lo), rational_str(r.interval.hi)
            deadline = rational_str(r.deadline) if r.deadline is not None else ""
            w.writerow([r.flow, r.destination, self.model, lo, hi, deadline, r.verdict])
        return buf.getvalue()


def _sweep_order(network: NetworkSpec) -> list:
    """The SCCs of the union of the flow graphs, each sorted, in topological
    order of the condensation.

    Kosaraju: one depth-first search, roots and children in sorted order,
    records the finishing order; then each vertex, taken in reverse finishing
    order, gathers its component from the unplaced vertices that reach it.
    The loader rejects cyclic flows, so no vertex is its own parent, and a
    component is cyclic exactly when it has two members or more.
    """
    children = {v: set() for v in network.vertices}
    parents = {v: set() for v in network.vertices}
    for f in network.flows.values():
        for u, v in f.edges:
            children[u].add(v)
            parents[v].add(u)
    finished = []
    seen = set()
    for root in sorted(network.vertices):
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(sorted(children[root])))]  # iterative: the graph can be deep
        while work:
            node, it = work[-1]
            w = next((w for w in it if w not in seen), None)
            if w is None:
                work.pop()
                finished.append(node)
            else:
                seen.add(w)
                work.append((w, iter(sorted(children[w]))))
    components = []
    placed = set()
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        comp = [root]
        for v in comp:  # grows while it is walked
            for u in parents[v] - placed:
                placed.add(u)
                comp.append(u)
        components.append(sorted(comp))
    return components


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
        self.components = _sweep_order(network)
        # a cycle puts every burst on the grid; feed-forward analysis stays exact
        self.quantize = any(len(comp) > 1 for comp in self.components)
        self.notes = []  # cut-off notes
        # optimistic start: plain source curves everywhere, ports at zero queueing
        self.curves = {  # (flow, vertex) -> curve | None
            (fid, v): flow.arrival for fid, flow in network.flows.items() for v in flow.vertices
        }
        self.vertex_delays = {v: vertex_delay(spec, None) for v, spec in network.vertices.items()}
        # vertex -> site records and timeout notes of its last processing, by kind
        self.records = {}
        self.iterations = 0
        self.status = CONVERGED
        self._crossing = {v: [] for v in network.vertices}
        self._placed = {v: [] for v in network.vertices}  # (placement, its flows sorted)
        self._function = {}  # (kind, flow, vertex) -> placement, one at most
        for p in network.placements:
            self._placed[p.vertex].append((p, sorted(p.flows)))
            for fid in p.flows:
                self._function[(p.kind, fid, p.vertex)] = p
        self._ancestors = {}  # (flow, vertex) -> sorted diamond ancestors but itself
        self._anchor = {}  # (flow, vertex) -> the last of those in flow order
        eps = {}
        for fid in sorted(network.flows):
            flow = network.flows[fid]
            idx = {v: i for i, v in enumerate(flow.order)}
            eps[fid] = ep_vertices(network, fid)
            dominators = diamond_ancestors(network, fid)
            for v in flow.order:
                self._crossing[v].append(fid)
                if v != flow.source:
                    # the source is a non-EP ancestor of every other vertex
                    ancestors = sorted(dominators[v] - {v})
                    self._ancestors[(fid, v)] = ancestors
                    self._anchor[(fid, v)] = max(ancestors, key=idx.__getitem__)
        # (flow, vertex of its POF) -> how long a unit may wait in that
        # re-sequencer: nothing for lossless traffic, up to the timeout for
        # lossy traffic, without bound if there is no timeout.  A wait that
        # can hold a unit also counts in every other section of the flow that
        # crosses the vertex: _pof_waits maps the flow to those (vertex, wait)
        self._wait = {}
        self._pof_waits = {}
        for p in network.placements:
            if p.kind == POF:
                wait = NO_DELAY if lossless else DelayInterval(
                    0, UNBOUNDED if p.timeout is None else p.timeout
                )
                for fid in p.flows:
                    self._wait[(fid, p.vertex)] = wait
                    if wait.hi:
                        self._pof_waits.setdefault(fid, []).append((p.vertex, wait))
        # (flow, vertex of its REG) -> can the units entering that regulator's
        # queue be out of source order: the flow's own units in a per-flow
        # queue, those of any of its flows in a shared (interleaved) one
        self._out_of_order = {}
        for p in network.placements:
            if p.kind == REG:
                own = {g: self._disordered_at(g, eps[g], p.reference, p.vertex) for g in p.flows}
                shared = p.mode != REG_PER_FLOW and any(own.values())
                for g in p.flows:
                    self._out_of_order[(g, p.vertex)] = own[g] or shared
        # vertex of a cyclic component -> the members that read its outputs
        self._readers = {v: set() for comp in self.components if len(comp) > 1 for v in comp}
        for comp in self.components:
            for v in comp if len(comp) > 1 else ():
                for x in self._inputs(v).intersection(comp):
                    self._readers[x].add(v)

    def _disordered_at(self, fid, eps, a, v) -> bool:
        """Can units of the flow reach v's regulator out of source order,
        on the paths from a's output to v?

        Walking those paths downstream, a vertex lets units out of order
        when it holds coexisting duplicates (EP), hosts an eliminator of the
        flow, or has a parent on the paths that lets them out of order; a
        re-sequencer of the flow there restores source order.  At v the
        eliminator and the re-sequencer run before the regulator.
        """
        disordered = set()
        for x, parents in _section_plan(self.net.flows[fid].edges, a, v):
            if (POF, fid, x) not in self._function and (
                x in eps or (PEF, fid, x) in self._function or not disordered.isdisjoint(parents)
            ):
                disordered.add(x)
        return v in disordered

    def _inputs(self, v) -> set:
        """The other vertices whose outputs processing v reads: the flow
        parents, and the reference points of v's functions (the diamond
        ancestors for an eliminator) with the sections from them to v.  The
        legs an interleaved regulator reads lie on its flows' sections."""
        flows = self.net.flows
        reads = set()
        for fid in self._crossing[v]:
            reads.update(flows[fid].parents[v])
        for placement, pflows in self._placed[v]:
            for fid in pflows:
                refs = self._ancestors[(fid, v)] if placement.kind == PEF else [placement.reference]
                for a in refs:
                    reads.add(a)
                    reads.update(x for x, _ in _section_plan(flows[fid].edges, a, v))
        reads.discard(v)
        return reads

    # -- structural helpers --------------------------------------------------

    def _delays(self, fid: str):
        """Port delays as the units of the flow see them: the lossy
        re-sequencers' waits added at their vertices."""
        waits = self._pof_waits.get(fid)
        if waits is None:
            return self.vertex_delays
        return ChainMap(
            {x: self.vertex_delays[x].plus(wait) for x, wait in waits}, self.vertex_delays
        )

    def _bounds(self, fid: str, a: str, v: str) -> DelayInterval:
        return path_delay_bounds(self.net.flows[fid].edges, a, v, self._delays(fid))

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

    # -- chaotic iteration over one cyclic component -------------------------

    def settle(self, members, iter_cap: int) -> int:
        """Sweep a cyclic component until a pass changes nothing, and return
        the pass count; the stop rules are those of the status, per component.
        A cut-off component (Diverged, IterationCap) gets one more pass, which
        carries the cut-off (None) curves around its cycles; over the dirty
        members only, it leaves the state a pass over all of them would."""
        dirty = set(members)
        passes = 0
        for passes in range(1, iter_cap + 1):
            if not self._pass(members, dirty) or self.status != CONVERGED:
                break
        else:
            if self.status == CONVERGED:
                self.status = ITERATION_CAP
                self.notes.append(f"no fixed point within {iter_cap} sweeps")
        if self.status != CONVERGED:
            self._pass(members, dirty)
        return passes

    def _pass(self, members, dirty: set) -> bool:
        """One Gauss-Seidel pass over the dirty members, in sorted order; a
        member that changes makes its readers dirty, later in this pass or
        in the next one."""
        changed = False
        for v in members:
            if v in dirty:
                dirty.discard(v)
                if self._process_vertex(v):
                    changed = True
                    dirty |= self._readers[v]
        return changed

    def _records(self, v: str, key: str) -> list:
        """The site records or notes of one kind that v's processing leaves."""
        return self.records.setdefault(v, {}).setdefault(key, [])

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
        self.records.pop(v, None)
        post = {fid: self._input_curve(fid, v) for fid in self._crossing[v]}

        for placement, flows in self._placed[v]:
            for fid in flows:
                if placement.kind == PEF:
                    post[fid] = self._apply_pef(fid, v, post[fid])
                elif placement.kind == POF:
                    post[fid] = self._apply_pof(fid, v, placement, post[fid])
                else:
                    post[fid] = self._apply_reg(fid, v, placement)

        if any(c is None for c in post.values()):
            spec = net.vertices[v]
            vdel = spec.tech if spec.service is None else DelayInterval(spec.tech.lo, UNBOUNDED)
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
        self._records(v, "pef_sites").append(
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
            # the re-sequencer restores the reference order, so its output is
            # the reference curve spread by the section and its own wait
            section = bounds.plus(self._wait[(fid, v)])
            if is_unbounded(section.hi):
                self._records(v, "notes").append(
                    f"re-sequencer for {fid} at {v}: lossy traffic needs a finite timeout"
                )
            else:
                out = lossy_jitter_output_curve(ref_curve, section)
            rto = pef_rto_bound(ref_curve, bounds, self.net.flows[fid].lmin)
            if alpha_in is not None:
                rbo = rbo_from_rto(alpha_in, rto)
        self._records(v, "pof_sites").append(
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
        self._records(v, "reg_sites").append(
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

        if not self._out_of_order[(fid, v)]:
            # FIFO into the queue, or re-sequenced at v: the regulator never
            # delays the worst unit beyond the re-sequencer's own wait
            eff = preof_for_free_bounds(bounds, self._wait.get((fid, v), NO_DELAY))
            if is_unbounded(eff.hi):
                return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False), None
            return RegulatorVerdict.of_interval(eff), None

        if placement.mode == REG_PER_FLOW or len(placement.flows) == 1:
            rto = pfr_after_pef_rto(pef_rto_bound(ref_curve, bounds, flow.lmin), bounds)
            return RegulatorVerdict.of_interval(pfr_after_pef_bounds(sigma, bounds)), rto

        # interleaved: one queue, so stability depends on every flow sharing it
        flows = sorted(placement.flows)
        if any((g, v) in self._wait for g in flows):
            # a re-sequenced flow enters in order, outside the construction
            # that proves the queue unstable
            return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False), None
        branch_lists = []
        for g in flows:
            branches = []
            edges, delays = self.net.flows[g].edges, self._delays(g)
            for parent in sorted(self.net.flows[g].parents[v]):
                leg = NO_DELAY  # the section starts at the reference's output
                if parent != ref:
                    leg = path_delay_bounds(edges, ref, parent, delays).plus(delays[parent])
                branches.append((leg.lo, leg.hi))
            branch_lists.append(sorted(branches))
        if any(bl != branch_lists[0] for bl in branch_lists[1:]):
            return RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False), None
        verdict = ir_after_pef_verdict(
            {g: placement.shaping[g] for g in flows},
            [DelayInterval(lo, hi) for lo, hi in branch_lists[0]],
            {g: self.net.flows[g].lmin for g in flows},
            bounds,
        )
        return verdict, None

    # -- the report ---------------------------------------------------------

    def report(self) -> AnalysisReport:
        """The report of the current state; an otherwise converged run whose
        ports are overloaded is Diverged."""
        order = [v for comp in self.components for v in comp]
        records = {
            key: [r for v in order for r in self.records.get(v, {}).get(key, ())]
            for key in ("pef_sites", "pof_sites", "reg_sites", "notes")
        }
        notes = self.notes + records.pop("notes")
        if self.status == CONVERGED:
            overloaded = sorted(v for v, d in self.vertex_delays.items() if is_unbounded(d.hi))
            if overloaded:
                self.status = DIVERGED
                notes += [f"aggregate exceeds the service rate at {v}" for v in overloaded]
        return AnalysisReport(
            model=self.model,
            lossless=self.lossless,
            status=self.status,
            iterations=self.iterations,
            results=self.compose(),
            vertex_delays=dict(self.vertex_delays),
            notes=notes,
            **records,
        )

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
            cut = pof or reg  # a re-sequencer's reference comes first
            anchor = self._anchor[(fid, v)] if cut is None else cut.reference
            base = self._bounds(fid, anchor, v)
            section = base if pof is None else base.plus(self._wait[(fid, v)])
            if reg is not None:
                # behind a re-sequencer the regulator is free when it admits
                # a bound at all
                verdict, _ = self._reg_verdict(fid, v, reg, self.curves.get((fid, reg.reference)))
                if not verdict.bounded:
                    section = DelayInterval(base.lo, UNBOUNDED)
                elif pof is None:
                    section = verdict.delay
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
    Each cyclic component is swept, over its dirty members only, until a
    pass changes nothing; its passes are capped by `iter_cap` (default 1000),
    and growing states are cut off once a curve's burst exceeds `burst_cap`.
    `iterations` is the largest pass count of a cyclic component, and 1 on a
    feed-forward network.
    """
    if model not in (MODEL_TIGHT, MODEL_INTUITIVE):
        raise ValueError(f"unknown analysis model {model!r}")
    iter_cap = DEFAULT_ITER_CAP if iter_cap is None else iter_cap
    burst_cap = DEFAULT_BURST_CAP if burst_cap is None else parse_rational(burst_cap)

    an = _Analyzer(network, model, lossless, burst_cap)
    passes = []
    for comp in an.components:
        if len(comp) > 1:
            passes.append(an.settle(comp, iter_cap))
        else:
            # its inputs have settled upstream, so one processing is final
            an._process_vertex(comp[0])
    an.iterations = max(passes, default=1)
    return an.report()


def compare_models(network: NetworkSpec, lossless: bool = False, **kw) -> dict:
    """Run both eliminator models and pair the per-destination intervals."""
    tight = analyze(network, MODEL_TIGHT, lossless, **kw)
    intuitive = analyze(network, MODEL_INTUITIVE, lossless, **kw)
    pairs = {}
    for r in tight.results:
        other = intuitive.result_for(r.flow, r.destination)
        pairs[(r.flow, r.destination)] = (r.interval, other.interval)
    return {"tight": tight, "intuitive": intuitive, "pairs": pairs}
