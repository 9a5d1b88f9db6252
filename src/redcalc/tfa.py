"""Fixed-point worst-case delay analysis over a network of FIFO output ports.

Every flow carries an arrival curve that is propagated vertex by vertex: the
port's delay interval comes from the horizontal deviation of the aggregate
curve against the port's service curve, each flow's output curve is its input
curve spread by the port jitter, and the redundancy functions transform curves
and accumulated delay intervals at the vertices that host elimination,
re-sequencing, or shaping.

The vertices are taken one strongly connected component (SCC) of the union
graph at a time, in topological order.  A vertex on no cycle is processed
once, after its inputs have settled.  A cyclic component is settled by
policy iteration: after each exact Gauss-Seidel pass over its members, its
port delays are read as an affine map of themselves, `W' = A W + b`, and
solved exactly by fraction-free elimination in integers, on a fork of the
analyzer.  The solution is kept when `A >= 0`, every leading principal
minor of `I - A` is positive, the solution lies above the state, and the
curves rebuilt from it give it back (where they do not, the piece read there
is solved once more).  Two passes in a row on one `A` with a minor at or
below zero make the component Diverged, and `iter_cap` passes make it
IterationCap; no other rule cuts a component off, and a vertex on no
cycle, processed once, keeps whatever finite bound it reads.  Each
component decides its own status; the run's is the worst of theirs.
A cut-off component proves no bound: its members restart from no bound for
one more pass, which the components after it read.  No value is rounded,
so every bound is exact and none depends on how the vertices are named.

The structure of each flow (diamond ancestors, anchors, the functions placed
at each vertex) is computed once per analysis; a section between a reference
and a vertex is walked in the flow's own order when its bounds are needed.
Each PEF/POF site keeps the report of its last processing; after convergence
they describe the fixed point, and the report lists them in sweep order.  A
regulator's output is its shaping curve whatever its delay, so its verdict
stays out of the iteration: each placement is decided once, from the final
state (an interleaved regulator's shared queue once for all its flows), and
the report and the end-to-end composition read the same verdicts.

Two models of the eliminator are supported: ``tight`` constrains the output
by every diamond-ancestor curve, ``intuitive`` keeps the plain sum of the
replicate curves as if nothing were dropped.  The model changes only the
eliminators' outputs, so an analysis can start from one of the other model
on the same network (`analyze(..., base=report)`, which `compare_models`
uses): it shares the structure and processes again only the components
that host an eliminator or have a flow parent that changed; every other
component keeps the state and log of the other model, and each flow its
end-to-end results when its port delays and regulator verdicts are
unchanged.  A vertex on no cycle processed again only for its eliminators
reads what the other model's run read, so each eliminator there keeps that
run's record, which holds the output curves of both models, and takes its
output curve from the record.

Each flow is composed end to end at its destinations only, each along its
anchor chain: from the destination to its anchor (the reference of its
re-sequencer or regulator, its nearest diamond ancestor otherwise), and on
from anchor to anchor back to the source.
"""

from __future__ import annotations

import copy
import io
from collections import ChainMap, namedtuple
from fractions import Fraction

from .minplus import (
    UNBOUNDED,
    Affine,
    ConcaveCurve,
    _on_grid,
    _value,
    add,
    curve_leq,
    h_dev,
    is_unbounded,
    rational_str,
    to_jsonable,
)
from .redundancy import (
    lossy_jitter_output_curve,
    pef_output_curve,
    pef_rto_bound,
    rbo_from_rto,
)
from .record import Record
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
    _reached,
    ep_vertices,  # unused here, but bench/tracing.py counts the calls made through this binding
    path_delay_bounds,
)

MODEL_TIGHT = "tight"
MODEL_INTUITIVE = "intuitive"
# the key of each model's output curve in an eliminator's record
PEF_OUTPUT = {MODEL_TIGHT: "tight_curve", MODEL_INTUITIVE: "intuitive_curve"}

CONVERGED = "Converged"
DIVERGED = "Diverged"
ITERATION_CAP = "IterationCap"

DEFAULT_ITER_CAP = 1000

NO_DELAY = DelayInterval(0, 0)
# a regulator configuration that admits no bound without proving divergence
UNPROVEN = RegulatorVerdict.unbounded(UNPROVEN_CONFIGURATION, proven=False)

# affine pieces one solve reads: the one at the state, then the one at a
# solution that the curves rebuilt there do not give back
SOLVE_READS = 2


def vertex_delay(vertex, aggregate: ConcaveCurve | None) -> DelayInterval:
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
        return DelayInterval._unchecked(tech.lo, tech.lo)
    dev = h_dev(aggregate, vertex.service)  # >= 0
    return DelayInterval._unchecked(tech.lo, UNBOUNDED if is_unbounded(dev) else tech.lo + dev)


class FlowResult(Record):
    """The delay interval of one flow at one destination; `deadline` is a
    Fraction or None, `verdict` one of met, violated, unbounded and ok."""

    __slots__ = _fields = ("flow", "destination", "interval", "deadline", "verdict")

    def __init__(self, flow: str, destination: str, interval: DelayInterval,
                 deadline: Fraction | None, verdict: str):
        self._set_fields(flow, destination, interval, deadline, verdict)

    def to_json(self) -> dict:
        return to_jsonable(self._asdict())


class AnalysisReport(Record):
    """What `analyze` returns.  `results` holds the FlowResults and
    `vertex_delays` maps each vertex to its DelayInterval.  The site records
    are in sweep order, then in the order of the vertex's placements, then
    of their sorted flows, one dict per (placement, flow), except a PEF whose
    input is cut off: PEF/POF from each site's last processing, REG verdicts
    from the final state; to_json writes them key by key.  `notes` holds the
    cut-off notes, then the re-sequencers' timeout notes in site order, then
    the overloaded ports."""

    _fields = ("model", "lossless", "status", "iterations", "results", "vertex_delays",
               "pef_sites", "pof_sites", "reg_sites", "notes")
    # `analyze` keeps its analyzer on the report, as no field: to_json, ==
    # and repr leave it out
    __slots__ = _fields + ("_analyzer",)

    def __init__(self, model: str, lossless: bool, status: str, iterations: int,
                 results: list, vertex_delays: dict, pef_sites: list, pof_sites: list,
                 reg_sites: list, notes: list):
        self._set_fields(model, lossless, status, iterations, results, vertex_delays,
                         pef_sites, pof_sites, reg_sites, notes)

    def any_violation(self) -> bool:
        return any(r.verdict in ("violated", "unbounded") for r in self.results)

    def to_json(self) -> dict:
        # the fields in order, the port delays sorted by vertex
        doc = self._asdict()
        doc["vertex_delays"] = dict(sorted(self.vertex_delays.items()))
        return to_jsonable(doc)

    def to_csv(self) -> str:
        import csv  # only `--format csv` needs it

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


def _least_fixed_point(forms: list, point: list):
    """The solution of `W = A W + b`, where `forms[i]` is the affine form
    `(A W + b)[i]` over the unknowns 0..n-1, written at `point` (a plain
    rational for a row of A that is zero), and `A >= 0`; None unless every
    leading principal minor of `I - A` is positive, which for such an `A`
    means a spectral radius below 1: otherwise the piece has no finite
    least fixed point.

    Fraction-free elimination (Bareiss) on `[I - A | b]`, rows scaled to
    integers, no row exchanged: each row below the pivot's becomes
    `(p x - f y) // prev`, an exact division by the previous pivot, and each
    pivot is a leading principal minor times positive row scales.  The last,
    `d`, times each unknown is an integer: back-substitution divides exactly."""
    n = len(point)
    rows = []
    for i, w in enumerate(forms):
        coeffs = w.coeffs if type(w) is Affine else {}
        row = [0] * n + [_value(w) - sum(c * point[j] for j, c in coeffs.items())]
        for j, c in coeffs.items():
            row[j] = -c
        row[i] += 1
        rows.append(_on_grid(row)[1])
    prev = 1
    for k, top in enumerate(rows):
        p = top[k]
        if p <= 0:
            return None
        for row in rows[k + 1 :]:
            f = row[k]
            if f:
                row[k + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[k + 1 :], top[k + 1 :])]
            else:  # the same division with nothing to subtract
                row[k + 1 :] = [p * x // prev for x in row[k + 1 :]]
        prev = p
    d, scaled = prev, [0] * n  # scaled[j] = d * W[j]
    for k, row in reversed(list(enumerate(rows))):
        rest = sum(x * y for x, y in zip(row[k + 1 : n], scaled[k + 1 :]))
        scaled[k] = (d * row[n] - rest) // row[k]
    return [Fraction(x, d) for x in scaled]


# an affine piece of the sweep with a leading principal minor of `I - A` <= 0:
# `coeffs`, the rows of A, each a dict from unknown to coefficient, and
# `growing`, the served members that it moves above its point, sorted
_Piece = namedtuple("_Piece", "coeffs growing")

# what processing one component did beyond its members' state: `notes`, a
# tuple of the cut-off and solve notes it appended; `passes`, 1 for a vertex
# on no cycle; `status`, its own, before the report's overload check
_ComponentLog = namedtuple("_ComponentLog", "notes passes status")


class _Analyzer:
    def __init__(self, network, model, lossless):
        self.net = network
        self.model = model
        self.lossless = lossless
        self.iter_cap = None  # set by run
        self.components = _sweep_order(network)
        self.notes = []  # cut-off notes
        self.curves = {}  # (flow, vertex) -> curve | None
        self.vertex_delays = {}
        # (kind, flow, vertex) of a PEF/POF site -> its record from its last
        # processing (None: a PEF cut off), replaced, never changed: forks share it
        self.sites = {}
        self.iterations = 0
        self.status = CONVERGED
        self._log = []  # _ComponentLog per component, in sweep order
        self._base = None  # the analyzer this one was forked from, until compose
        self._as_base = None  # the vertex run processes as the base did, while it does
        self._verdicts = {}  # (flow, vertex of its REG) -> RegulatorVerdict, by report
        self._results = {}  # flow -> its FlowResults, by report
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
            dominators = diamond_ancestors(network, fid)
            # a vertex is EP exactly when it is not its own diamond ancestor
            eps[fid] = {v for v, anc in dominators.items() if v not in anc}
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
        self._reset(network.vertices)

    def _reset(self, vertices):
        """The optimistic start at `vertices`: plain source curves, ports at
        zero queueing; their processing then rewrites their site records."""
        for v in vertices:
            self.vertex_delays[v] = vertex_delay(self.net.vertices[v], None)
            for fid in self._crossing[v]:
                self.curves[(fid, v)] = self.net.flows[fid].arrival

    def _fork(self) -> "_Analyzer":
        """A copy that shares this one's structural tables and owns copies
        of its state containers (`copy.copy` keeps their types)."""
        an = copy.copy(self)
        for name in ("curves", "vertex_delays", "sites", "notes"):
            setattr(an, name, copy.copy(getattr(self, name)))
        return an

    def run(self, iter_cap: int, base=None):
        """Process the components in sweep order, logging each: a vertex on
        no cycle once, after its inputs have settled upstream, a cyclic
        component by `settle`.  `status` is the worst of the components'
        own, whatever their order; `iterations` the largest pass count.

        With `base`, the analyzer this one was forked from, a component
        keeps the base's state and log when no member hosts an eliminator
        and no member has a flow parent in `changed`.  Any other component
        starts again from the optimistic start; all its members join
        `changed` when it was entered for a change upstream or one of them
        differs from the base.  Processing a vertex reads only vertices
        upstream of it in a flow that crosses it, so a change reaches it
        through a flow parent; marking whole components covers a read
        through a cycle member that did not itself change.  A vertex on no
        cycle processed again only for its eliminators reads what the base
        read, so each eliminator there keeps the base's record
        (`_as_base`)."""
        self.iter_cap, self._base, self._log = iter_cap, base, []
        changed = set()
        for i, comp in enumerate(self.components):
            as_base = False
            if base is not None:
                log = base._log[i]
                as_base = not changed or all(
                    changed.isdisjoint(self.net.flows[fid].parents[v])
                    for v in comp
                    for fid in self._crossing[v]
                )
                if as_base and not any(p.kind == PEF for v in comp for p, _ in self._placed[v]):
                    self.notes += log.notes
                    self._log.append(log)
                    continue
                self._reset(comp)
            start = len(self.notes)
            if len(comp) > 1:
                passes, status = self.settle(comp, iter_cap)
            else:
                self._as_base = comp[0] if as_base else None
                self._process_vertex(comp[0])
                self._as_base = None
                passes, status = 1, CONVERGED
            self._log.append(_ComponentLog(tuple(self.notes[start:]), passes, status))
            if base is not None and (not as_base or any(self._differs(v, base) for v in comp)):
                changed.update(comp)
        self.iterations = max((log.passes for log in self._log), default=1)
        self.status = min((log.status for log in self._log),
                          key=(DIVERGED, ITERATION_CAP, CONVERGED).index, default=CONVERGED)

    def _differs(self, v: str, base) -> bool:
        return self.vertex_delays[v] != base.vertex_delays[v] or any(
            self.curves[(fid, v)] != base.curves[(fid, v)] for fid in self._crossing[v]
        )

    def _disordered_at(self, fid, eps, a, v) -> bool:
        """Can units of the flow reach v's regulator out of source order,
        on the paths from a's output to v?

        Along the forward walk from a (`_reached`), a vertex lets units out
        of order when it holds coexisting duplicates (EP), hosts an
        eliminator of the flow, or has a reached parent that lets them out
        of order; a re-sequencer of the flow there restores source order.
        At v the eliminator and the re-sequencer run before the regulator.
        """
        disordered = set()
        for x, parents in _reached(self.net.flows[fid], a, v).items():
            # a, the one vertex without a reached parent, never counts
            if parents and (POF, fid, x) not in self._function and (
                x in eps or (PEF, fid, x) in self._function or not disordered.isdisjoint(parents)
            ):
                disordered.add(x)
        return v in disordered

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
        return path_delay_bounds(self.net.flows[fid], a, v, self._delays(fid))

    # -- policy iteration over one cyclic component --------------------------

    def settle(self, members, iter_cap: int) -> tuple:
        """Find a cyclic component's least fixed point by policy iteration,
        and return the pass count and the component's status, decided from
        its own passes alone.  After every pass over the members that
        changes something, while the cap allows one more pass, the port
        delays are solved on the affine piece of the sweep (`_solve`); an
        accepted solve ends the sweep, its confirmation counted as a pass,
        with every member's curves and site records at the solution.
        Two solves in a row rejected on the same `A`, for a leading principal
        minor of `I - A` at or below zero, make the component Diverged.  A
        cut-off component holds an unfinished iterate, below the least fixed
        point, so every member restarts from no bound (`_unbound`) for one
        more pass over all of them."""
        status, passes = CONVERGED, 0
        last = None  # the rows of A of the last pass's piece without a finite fixed point
        for passes in range(1, iter_cap + 1):
            if not self._pass(members):
                break
            outcome = passes < iter_cap and self._solve(members)
            if outcome is True:
                passes += 1  # the confirmation of the solve
                break
            if outcome and outcome.coeffs == last:
                status = DIVERGED
                self.notes.append(f"no finite fixed point: port delays at "
                                  f"{', '.join(outcome.growing)} grow on one affine piece")
                break
            last = outcome and outcome.coeffs
        else:
            status = ITERATION_CAP
            self.notes.append(f"no fixed point within {iter_cap} sweeps")
        if status != CONVERGED:
            for v in members:
                self._unbound(v)
            self._pass(members)
        return passes, status

    def _unbound(self, v: str):
        """No curve out of v, and v's port delay under no bound."""
        post = dict.fromkeys(self._crossing[v])
        self.vertex_delays[v] = self._port_delay(v, post)
        self.curves.update(((fid, v), None) for fid in post)

    def _solve(self, members):
        """Solve the component's port delays exactly, and keep the solution
        only if it is the least fixed point above the current state.

        With the served members' upper delay ends frozen as unknowns `W` at
        a point, first the state, one walk over the flows rebuilds every
        curve of the component, and the port delays read from those curves
        are `W' = A W + b`, the affine piece of the sweep at that point.
        With `A >= 0`, `(I - A) W = b` is solved when every leading principal
        minor of `I - A` is positive (the iteration from below converges to
        the solution), and the solution must be at least the state.  The
        curves are then rebuilt exactly at the solution; when they give other
        port delays back, the piece read there is solved the same way, up to
        SOLVE_READS pieces in all.  The solution is accepted, and True
        returned, when it confirms itself: the rebuild at it gives every
        member back its frozen port delay, so an exact pass would change
        nothing either; that rebuild has written the site records of every
        member from the curves at the solution.  The solve works on a fork
        (`_fork`), taken over only when it is accepted.  A rejected solve
        returns the `_Piece` with a leading principal minor
        of `I - A` at or below zero, or False for any other rejection, a
        negative coefficient among them."""
        served = [v for v in members if self.net.vertices[v].service is not None]
        point = state = [self.vertex_delays[v].hi for v in served]
        if any(is_unbounded(x) for x in state):
            return False
        trial = self._fork()
        for _ in range(SOLVE_READS):
            for i, v in enumerate(served):
                trial._freeze(v, Affine(point[i], {i: 1}))
            delays = trial._rebuild(members)
            if any(is_unbounded(delays[v].hi) for v in served):
                return False
            forms = [delays[v].hi for v in served]
            coeffs = [w.coeffs if type(w) is Affine else {} for w in forms]
            if any(c < 0 for row in coeffs for c in row.values()):
                return False
            solution = _least_fixed_point(forms, point)
            if solution is None:
                return _Piece(coeffs, [v for v, w, x in zip(served, forms, point) if _value(w) > x])
            if any(w < x for w, x in zip(solution, state)):
                return False
            point = solution
            for v, w in zip(served, point):
                trial._freeze(v, w)
            delays = trial._rebuild(members)
            if all(delays[v] == trial.vertex_delays[v] for v in members):
                break
        else:
            return False
        vars(self).update(vars(trial))  # the trial's state
        self.notes.append(f"port delays at {', '.join(members)} solved exactly")
        return True

    def _freeze(self, v: str, hi):
        self.vertex_delays[v] = DelayInterval._unchecked(self.vertex_delays[v].lo, hi)

    def _rebuild(self, members) -> dict:
        """Every curve of the component from the frozen port delays, each
        crossing flow walked in its order, so each curve follows the ones it
        reads; returns the members' port delays under the new curves."""
        inside = set(members)
        post = {v: {} for v in members}
        for fid in sorted({fid for v in members for fid in self._crossing[v]}):
            for v in self.net.flows[fid].order:
                if v in inside:
                    cur = post[v][fid] = self._post(fid, v)
                    self.curves[(fid, v)] = self._output(cur, self.vertex_delays[v])
        return {v: self._port_delay(v, post[v]) for v in members}

    def _pass(self, vertices) -> bool:
        """One Gauss-Seidel pass: each of `vertices` processed in turn, each
        reading the outputs of those before it; True when one changes its
        port delay or an output curve.  Once one has, the rest are not
        compared."""
        changed = False
        for v in vertices:
            if changed:
                self._process_vertex(v)
                continue
            before = self._state(v)
            self._process_vertex(v)
            changed = self._state(v) != before
        return changed

    def _state(self, v: str) -> tuple:
        """v's port delay and output curves, None where not yet computed."""
        return (
            self.vertex_delays.get(v),
            *(self.curves.get((fid, v)) for fid in self._crossing[v]),
        )

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

    def _process_vertex(self, v: str):
        post = {fid: self._post(fid, v) for fid in self._crossing[v]}
        vdel = self.vertex_delays[v] = self._port_delay(v, post)
        for fid, cur in post.items():
            self.curves[(fid, v)] = self._output(cur, vdel)

    def _post(self, fid: str, v: str):
        """The flow's curve after v's functions, in pipeline order, before
        its port; the PEF and POF write their site records."""
        pef = (PEF, fid, v)
        if pef not in self._function:
            cur = self._input_curve(fid, v)
        else:
            if v != self._as_base:  # else the base's record holds what v reads
                self.sites[pef] = self._pef_site(fid, v, self._input_curve(fid, v))
            site = self.sites[pef]
            cur = None if site is None else site[PEF_OUTPUT[self.model]]
        pof = self._function.get((POF, fid, v))
        if pof is not None:
            cur = self._apply_pof(fid, v, pof, cur)
        reg = self._function.get((REG, fid, v))
        if reg is not None:
            # the regulator output conforms to its shaping curve even when
            # its delay admits no bound: the verdict waits for the final
            # state (report), the curve propagates now
            cur = reg.shaping[fid]
        return cur

    def _port_delay(self, v: str, post: dict) -> DelayInterval:
        """v's port delay under the flows' curves `post`, unbounded at a
        served port when one of them is cut off (None)."""
        spec = self.net.vertices[v]
        if any(c is None for c in post.values()):
            return spec.tech if spec.service is None else DelayInterval(spec.tech.lo, UNBOUNDED)
        return vertex_delay(spec, _total(list(post.values())))

    def _output(self, cur, vdel: DelayInterval):
        if cur is None or is_unbounded(vdel.hi):
            return None
        return lossy_jitter_output_curve(cur, vdel)

    # -- local function transforms ---------------------------------------------

    def _pef_site(self, fid, v, alpha_in):
        """The eliminator's record, which holds the output curve of either
        model; None when its input is cut off.  Its RBO, the one part that
        depends on the model, is added by `report`."""
        if alpha_in is None:
            return None
        anchor = self._anchor[(fid, v)]
        rto = UNBOUNDED
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
        return {
            "vertex": v,
            "flow": fid,
            "reference": anchor,
            "tight_curve": pef_output_curve(alpha_in, ancestors),
            "intuitive_curve": alpha_in,
            "rto_bound": rto,
        }

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
            # the reference curve spread by the section and its own wait,
            # none where the wait is unbounded (report notes it)
            section = bounds.plus(self._wait[(fid, v)])
            if not is_unbounded(section.hi):
                out = lossy_jitter_output_curve(ref_curve, section)
            rto = pef_rto_bound(ref_curve, bounds, self.net.flows[fid].lmin)
            if alpha_in is not None:
                rbo = rbo_from_rto(alpha_in, rto)
        self.sites[(POF, fid, v)] = {
            "vertex": v,
            "flow": fid,
            "reference": ref,
            "timeout": placement.timeout,
            "required_timeout": rto,
            "required_buffer": rbo,
            "output_curve": out,
        }
        return out

    def _reg_verdict(self, fid, v, placement):
        """Through-delay verdict for the section reference -> regulator
        output, and the regulator's reordering offset, in the current state;
        None for a flow that the interleaved queue's one verdict decides."""
        flow = self.net.flows[fid]
        ref = placement.reference
        ref_curve = self.curves.get((fid, ref))
        sigma = placement.shaping[fid]
        bounds = self._bounds(fid, ref, v)
        if ref_curve is None or is_unbounded(bounds.hi):
            return UNPROVEN, None
        if not curve_leq(ref_curve, sigma):
            # shaping below the traffic the flow provably carries at the
            # reference: a rate deficit diverges, anything else is unproven
            if ref_curve.min_rate > sigma.min_rate:
                return RegulatorVerdict.unbounded(RATE_OVERLOAD), None
            return UNPROVEN, None
        if not self._out_of_order[(fid, v)]:
            # FIFO into the queue, or re-sequenced at v: the regulator never
            # delays the worst unit beyond the re-sequencer's own wait
            eff = preof_for_free_bounds(bounds, self._wait.get((fid, v), NO_DELAY))
            return (UNPROVEN if is_unbounded(eff.hi) else RegulatorVerdict.of_interval(eff)), None
        if placement.mode == REG_PER_FLOW or len(placement.flows) == 1:
            rto = pfr_after_pef_rto(pef_rto_bound(ref_curve, bounds, flow.lmin), bounds)
            return RegulatorVerdict.of_interval(pfr_after_pef_bounds(sigma, bounds)), rto
        return None, None

    def _queue_verdict(self, v, placement, flows) -> RegulatorVerdict:
        """Stability verdict of an interleaved regulator's one queue, reached
        out of order: it depends on every flow sharing the queue, `flows`
        sorted."""
        if any((g, v) in self._wait for g in flows):
            # a re-sequenced flow enters in order, outside the construction
            # that proves the queue unstable
            return UNPROVEN
        ref = placement.reference
        legs = []  # per flow: the delay of each branch, reference output -> v, sorted
        for g in flows:
            branches = [
                NO_DELAY if p == ref else self._bounds(g, ref, p).plus(self._delays(g)[p])
                for p in self.net.flows[g].parents[v]
            ]
            legs.append(sorted(branches, key=lambda d: (d.lo, d.hi)))
        if any(other != legs[0] for other in legs[1:]):
            return UNPROVEN
        shaping = {g: placement.shaping[g] for g in flows}
        return ir_after_pef_verdict(shaping, legs[0], {g: self.net.flows[g].lmin for g in flows})

    # -- the report ---------------------------------------------------------

    def report(self) -> AnalysisReport:
        """The report of the current state; an otherwise converged run whose
        ports are overloaded is Diverged.  A re-sequencer whose section is
        bounded but whose wait is not (a finite required timeout, no output
        curve) is noted.  Each regulator placement is decided here, once: per
        flow, then its shared queue if interleaved; the end-to-end
        composition reads the same verdicts."""
        verdicts = {}  # (flow, vertex of its REG) -> RegulatorVerdict
        pef_sites, pof_sites, reg_sites, timeouts = [], [], [], []
        for v in (v for comp in self.components for v in comp):
            for placement, flows in self._placed[v]:
                queue = None
                for fid in flows:
                    if placement.kind == PEF:
                        site = self.sites[(PEF, fid, v)]
                        if site is not None:
                            rto, out = site["rto_bound"], site[PEF_OUTPUT[self.model]]
                            rbo = rto if is_unbounded(rto) else rbo_from_rto(out, rto)
                            pef_sites.append({**site, "rbo_bound": rbo})
                    elif placement.kind == POF:
                        site = self.sites[(POF, fid, v)]
                        pof_sites.append(site)
                        rto = site["required_timeout"]
                        if site["output_curve"] is None and not is_unbounded(rto):
                            timeouts.append(f"re-sequencer for {fid} at {v}: "
                                            "lossy traffic needs a finite timeout")
                    else:
                        verdict, rto = self._reg_verdict(fid, v, placement)
                        if verdict is None:  # the interleaved queue's, taken once
                            verdict = queue = queue or self._queue_verdict(v, placement, flows)
                        verdicts[(fid, v)] = verdict
                        reg_sites.append({"vertex": v, "flow": fid, "mode": placement.mode,
                                          "rto_bound": rto, "verdict": verdict})
        notes = self.notes + timeouts
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
            results=self.compose(verdicts),
            vertex_delays=dict(self.vertex_delays),
            pef_sites=pef_sites,
            pof_sites=pof_sites,
            reg_sites=reg_sites,
            notes=notes,
        )

    # -- end-to-end composition -----------------------------------------------

    def compose(self, verdicts: dict) -> list:
        """Per-destination results, each composed along the destination's
        anchor chain (`_flow_cumulative`); `verdicts` maps (flow, vertex) to
        the verdict of the flow's regulator there.  A flow whose port delays and
        regulator verdicts are the base analyzer's keeps the base's results:
        its composition reads nothing else.  The base is let go here, so
        the report does not keep it alive."""
        base, self._base = self._base, None
        self._verdicts, self._results = verdicts, {}
        for fid in sorted(self.net.flows):
            flow = self.net.flows[fid]
            if base is not None and self._composed_alike(fid, verdicts, base):
                self._results[fid] = base._results[fid]
                continue
            cum = self._flow_cumulative(fid, verdicts)
            results = self._results[fid] = []
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
        return [r for results in self._results.values() for r in results]

    def _composed_alike(self, fid: str, verdicts: dict, base) -> bool:
        order = self.net.flows[fid].order
        return all(self.vertex_delays[v] == base.vertex_delays[v] for v in order) and all(
            verdicts[(fid, v)] == base._verdicts[(fid, v)]
            for v in order
            if (REG, fid, v) in self._function
        )

    def _flow_cumulative(self, fid: str, verdicts: dict) -> dict:
        """Entry-to-output delay interval at each destination of the flow,
        and at each vertex on a destination's anchor chain.

        Each vertex is anchored to an upstream cut point: the configured
        reference for re-sequencers and regulators, the nearest diamond
        ancestor otherwise, so parallel branches are bracketed by the hull of
        their path delays instead of a per-branch sum.  From a destination
        the anchors are followed back to a vertex already composed, the
        source at the latest, and the chain is composed forward from there;
        a vertex on no chain is not composed.
        """
        flow = self.net.flows[fid]
        vdel = self.vertex_delays
        cum = {flow.source: vdel[flow.source]}
        for dest in flow.destinations:
            chain = []  # (vertex, its anchor, its POF, its REG), back from dest
            v = dest
            while v not in cum:
                pof = self._function.get((POF, fid, v))
                reg = self._function.get((REG, fid, v))
                cut = pof or reg  # a re-sequencer's reference comes first
                anchor = self._anchor[(fid, v)] if cut is None else cut.reference
                chain.append((v, anchor, pof, reg))
                v = anchor
            for v, anchor, pof, reg in reversed(chain):
                base = self._bounds(fid, anchor, v)
                section = base if pof is None else base.plus(self._wait[(fid, v)])
                if reg is not None:
                    # behind a re-sequencer the regulator is free when it
                    # admits a bound at all
                    if not verdicts[(fid, v)].bounded:
                        section = DelayInterval(base.lo, UNBOUNDED)
                    elif pof is None:
                        section = verdicts[(fid, v)].delay
                cum[v] = cum[anchor].plus(section).plus(vdel[v])
        return cum


def _checked_cap(iter_cap) -> int:
    """The iteration cap with its default filled in; ValueError for a cap
    that is no int (a bool is none) or below 1."""
    iter_cap = DEFAULT_ITER_CAP if iter_cap is None else iter_cap
    if type(iter_cap) is bool or not isinstance(iter_cap, int):
        raise ValueError(f"iteration cap must be an integer, not {iter_cap!r}")
    if iter_cap < 1:
        raise ValueError(f"iteration cap must be at least 1, not {iter_cap}")
    return iter_cap


def analyze(
    network: NetworkSpec,
    model: str = MODEL_TIGHT,
    lossless: bool = False,
    iter_cap: int | None = None,
    *,
    base: AnalysisReport | None = None,
) -> AnalysisReport:
    """Propagate curves to a fixed point and report per-destination intervals.

    `lossless` asserts that no data unit is ever lost on the analyzed paths,
    which sharpens the re-sequencer transforms; without it a re-sequencer
    needs a configured timeout for the flow to keep a bounded delay.
    Each cyclic component is swept over all its members until its port
    delays are solved exactly, a pass changes nothing, or two passes in a
    row read one affine piece without a finite fixed point (Diverged); its
    passes, the confirmation of a solve included, are capped by `iter_cap`
    (default 1000, at least 1; ValueError otherwise), the one bound on the
    passes (IterationCap).  The run's status is the worst of the
    components' (Diverged, then IterationCap).  A vertex on no cycle is
    processed once, so any finite bound it reads is its bound.
    `iterations` is the largest pass count of a cyclic component, and 1 on
    a feed-forward network.

    `base`, a report that `analyze` returned for this network object with
    the same `lossless` flag and iteration cap (ValueError otherwise),
    normally of the other model, lets the analysis start from that one: it
    re-processes only the components the model can change and composes
    again only the flows whose port delays or regulator verdicts differ.
    The report is the one the analysis without `base` returns.
    """
    if model not in (MODEL_TIGHT, MODEL_INTUITIVE):
        raise ValueError(f"unknown analysis model {model!r}")
    iter_cap = _checked_cap(iter_cap)
    prior = None
    if base is None:
        an = _Analyzer(network, model, lossless)
    else:
        prior = getattr(base, "_analyzer", None)
        if prior is None or prior.net is not network:
            raise ValueError("the base report is not an analysis of this network")
        if prior.lossless != lossless:
            raise ValueError("the base report was analyzed with another lossless flag")
        if prior.iter_cap != iter_cap:
            raise ValueError("the base report was analyzed with another iteration cap")
        an = prior._fork()
        an.model, an.notes = model, []
    an.run(iter_cap, prior)
    report = an.report()
    report._analyzer = an
    return report


def compare_models(network: NetworkSpec, lossless: bool = False, **kw) -> dict:
    """Run both eliminator models and pair the per-destination intervals.
    The intuitive analysis starts from the tight one (`analyze`'s `base`),
    so only what the model changes is processed twice, and an eliminator
    that reads what it read in the tight run only takes its output from
    the tight run's record; both reports equal
    those of two independent analyses.  Neither report keeps its analyzer,
    so neither can be the `base` of another analysis."""
    tight = analyze(network, MODEL_TIGHT, lossless, **kw)
    intuitive = analyze(network, MODEL_INTUITIVE, lossless, **kw, base=tight)
    other = {(r.flow, r.destination): r.interval for r in intuitive.results}
    pairs = {}
    for r in tight.results:
        key = (r.flow, r.destination)
        pairs[key] = (r.interval, other[key])
    del tight._analyzer, intuitive._analyzer
    return {"tight": tight, "intuitive": intuitive, "pairs": pairs}
