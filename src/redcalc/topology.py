"""Network and flow data model, JSON loading, and graph predicates.

Vertices model output ports.  A vertex either offers a service curve (plus a
technological latency interval) or, when no service curve is given, acts as a
pure bounded-delay element whose delay interval is the technological one.

Flows are DAGs over the network graph.  Replication happens where a flow's
DAG branches, elimination where a packet-elimination function (PEF) is
placed.  Vertices holding duplicates of the same data unit without a PEF are
"elimination-pending" (EP) vertices.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .minplus import (
    UNBOUNDED,
    ConcaveCurve,
    RateLatency,
    is_unbounded,
    parse_rational,
    rational_str,
)


class SpecError(ValueError):
    """Validation failure; `path` points into the offending JSON document."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class DelayInterval:
    """Closed delay interval [lo, hi]; hi may be UNBOUNDED."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", parse_rational(self.lo))
        if not is_unbounded(self.hi):
            object.__setattr__(self, "hi", parse_rational(self.hi))
        if self.lo < 0:
            raise ValueError("delay lower bound must be >= 0")
        if self.hi < self.lo:
            raise ValueError("delay interval needs lo <= hi")

    @property
    def width(self):
        if is_unbounded(self.hi):
            return UNBOUNDED
        return self.hi - self.lo

    def plus(self, other: "DelayInterval") -> "DelayInterval":
        hi = (
            UNBOUNDED
            if is_unbounded(self.hi) or is_unbounded(other.hi)
            else self.hi + other.hi
        )
        return DelayInterval(self.lo + other.lo, hi)

    def hull(self, other: "DelayInterval") -> "DelayInterval":
        hi = (
            UNBOUNDED
            if is_unbounded(self.hi) or is_unbounded(other.hi)
            else max(self.hi, other.hi)
        )
        return DelayInterval(min(self.lo, other.lo), hi)

    def contains(self, value) -> bool:
        value = parse_rational(value)
        return self.lo <= value and (is_unbounded(self.hi) or value <= self.hi)

    def to_json(self) -> dict:
        return {"lo": rational_str(self.lo), "hi": rational_str(self.hi)}

    @staticmethod
    def from_json(data) -> "DelayInterval":
        if isinstance(data, (list, tuple)):
            lo, hi = data
        else:
            lo, hi = data["lo"], data["hi"]
        hi = UNBOUNDED if hi in ("unbounded", None) else hi
        return DelayInterval(parse_rational(lo), hi)


@dataclass(frozen=True)
class VertexSpec:
    name: str
    service: Optional[Union[RateLatency, ConcaveCurve]] = None
    tech: DelayInterval = field(default_factory=lambda: DelayInterval(0, 0))


@dataclass(frozen=True)
class FlowSpec:
    id: str
    source: str
    destinations: tuple
    edges: tuple  # (src, dst) pairs forming a DAG rooted at source
    arrival: ConcaveCurve
    lmin: Fraction
    lmax: Fraction
    deadlines: dict  # destination -> Fraction

    # the flow DAG, derived from `edges` on first use and kept; every caller
    # shares the same value, so the adjacency lists are tuples

    @functools.cached_property
    def vertices(self) -> frozenset:
        vs = {self.source, *self.destinations}
        for u, v in self.edges:
            vs.add(u)
            vs.add(v)
        return frozenset(vs)

    @functools.cached_property
    def parents(self) -> dict:
        out = {v: [] for v in self.vertices}
        for u, v in self.edges:
            out[v].append(u)
        return {v: tuple(vs) for v, vs in out.items()}

    @functools.cached_property
    def children(self) -> dict:
        out = {v: [] for v in self.vertices}
        for u, v in self.edges:
            out[u].append(v)
        return {v: tuple(vs) for v, vs in out.items()}

    @functools.cached_property
    def order(self) -> tuple:
        """The vertices in topological order; a cycle raises SpecError."""
        order = _topo(self.children, self.vertices)
        if len(order) != len(self.vertices):
            raise SpecError(f"flows[{self.id}].edges", "flow graph has a cycle")
        return tuple(order)


PEF = "pef"
POF = "pof"
REG = "reg"

REG_PER_FLOW = "per-flow"
REG_INTERLEAVED = "interleaved"

_KIND_RANK = {PEF: 0, POF: 1, REG: 2}


@dataclass(frozen=True)
class FunctionPlacement:
    kind: str  # pef | pof | reg
    vertex: str
    flows: frozenset
    reference: Optional[str] = None  # pof/reg: the upstream cut point o
    timeout: Optional[Fraction] = None  # pof: None means no timeout
    mode: Optional[str] = None  # reg: per-flow | interleaved
    shaping: Optional[dict] = None  # reg: flow id -> ConcaveCurve

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.timeout is not None:
            object.__setattr__(self, "timeout", parse_rational(self.timeout))
            if self.timeout < 0:
                raise ValueError("timeout must be >= 0")


@dataclass(frozen=True)
class NetworkSpec:
    vertices: dict  # name -> VertexSpec
    flows: dict  # id -> FlowSpec
    placements: tuple  # FunctionPlacement, pipeline order within a vertex


# ---------------------------------------------------------------------------
# graph predicates


def ep_vertices(network: NetworkSpec, flow_id: str) -> set:
    """Vertices where duplicates of a data unit of the flow can be present.

    A vertex with two or more parents in the flow DAG and no PEF for the
    flow is elimination-pending, and so is any child of an EP vertex that
    has no PEF.  An EP vertex must not re-split the flow: duplicates may
    not diverge again before being eliminated.
    """
    flow = network.flows[flow_id]
    pefs = {p.vertex for p in network.placements if p.kind == PEF and flow_id in p.flows}
    ep = set()
    for v in flow.order:
        if v in pefs:
            continue
        parents = flow.parents[v]
        if len(parents) >= 2 or any(p in ep for p in parents):
            ep.add(v)
            if len(flow.children[v]) > 1:
                raise SpecError(
                    f"flows[{flow_id}]",
                    f"vertex {v} re-splits the flow while duplicates are "
                    "still pending elimination",
                )
    return ep


def diamond_ancestors(network: NetworkSpec, flow_id: str) -> dict:
    """Each vertex n of the flow -> the non-EP vertices lying on every
    source -> n path of the flow DAG (n itself unless it is EP).

    One pass in topological order: the vertices on every path to n are n
    and those on every path to each of its parents.
    """
    flow = network.flows[flow_id]
    ep = ep_vertices(network, flow_id)
    ancestors = {}
    for v in flow.order:
        parents = flow.parents[v]
        common = set.intersection(*(ancestors[p] for p in parents)) if parents else set()
        if v not in ep:
            common.add(v)
        ancestors[v] = common
    return ancestors


def path_delay_bounds(edges, a: str, n: str, delay_of: dict) -> DelayInterval:
    """[min, max] over a -> n paths of the summed delay of inner vertices.

    The endpoints themselves do not contribute: the bounds cover the section
    between the output of `a` and the input of `n`'s local functions.
    `delay_of` maps each inner vertex to its DelayInterval.

    The plan of a section (its vertices in topological order, each with its
    parents on the section) depends on the edges only, so it is built once
    and cached; the delays are read from `delay_of` on every call.
    """
    if a == n:
        return DelayInterval(0, 0)
    zero = Fraction(0)
    lo = {a: zero}
    hi = {a: zero}
    for v, parents in _section_plan(tuple(edges), a, n):
        best_lo, best_hi = None, None
        for p in parents:
            if p == a:
                cand_lo, cand_hi = zero, zero
            else:
                cost = delay_of[p]
                cand_lo = lo[p] + cost.lo
                cand_hi = (
                    UNBOUNDED
                    if is_unbounded(hi[p]) or is_unbounded(cost.hi)
                    else hi[p] + cost.hi
                )
            best_lo = cand_lo if best_lo is None else min(best_lo, cand_lo)
            best_hi = cand_hi if best_hi is None else max(best_hi, cand_hi)
        lo[v] = best_lo
        hi[v] = best_hi
    return DelayInterval(lo[n], hi[n])


@functools.lru_cache(maxsize=4096)
def _section_plan(edges: tuple, a: str, n: str) -> tuple:
    """(vertex, its parents on the section) for every vertex on some a -> n
    path but a, in topological order."""
    children = {}
    parents = {}
    for u, v in edges:
        children.setdefault(u, []).append(v)
        parents.setdefault(v, []).append(u)
    fwd = _reach(children, a)
    if n not in fwd:
        raise ValueError(f"no path from {a} to {n}")
    live = fwd & _reach(parents, n)
    return tuple(
        (v, tuple(p for p in parents[v] if p in live))
        for v in _topo(children, live)
        if v != a
    )


def _reach(adj: dict, start: str) -> set:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _topo(children: dict, live) -> list:
    """The `live` vertices in topological order along `children`; shorter
    than `live` when they hold a cycle."""
    indeg = dict.fromkeys(live, 0)
    for u in live:
        for w in children.get(u, ()):
            if w in live:
                indeg[w] += 1
    frontier = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while frontier:
        v = frontier.pop()
        order.append(v)
        for w in sorted(children.get(v, ()), reverse=True):
            if w in live:
                indeg[w] -= 1
                if indeg[w] == 0:
                    frontier.append(w)
    return order


# ---------------------------------------------------------------------------
# JSON loading and validation


def _parse_service(data, path):
    if data is None:
        return None
    if not isinstance(data, dict):
        raise SpecError(path, "service must be rate-latency, curve segments, or null")
    if "segments" in data:
        try:
            return ConcaveCurve.from_json(data)
        except (ValueError, KeyError, TypeError) as exc:
            raise SpecError(path, f"bad curve: {exc}") from exc
    if "rate" in data and "latency" in data:
        try:
            return RateLatency(data["rate"], data["latency"])
        except (ValueError, TypeError) as exc:
            raise SpecError(path, f"bad rate-latency service: {exc}") from exc
    raise SpecError(path, "service must be rate-latency, curve segments, or null")


def parse_curve(data, path) -> ConcaveCurve:
    """Curve from `{"segments": [...]}` or `{"rate", "burst"}`; a bad one
    raises a SpecError that names `path`."""
    try:
        if isinstance(data, dict) and "segments" in data:
            return ConcaveCurve.from_json(data)
        if isinstance(data, dict) and "rate" in data:
            return ConcaveCurve([(data["rate"], data["burst"])])
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(path, f"bad curve: {exc}") from exc
    raise SpecError(path, "expected a curve object")


def load_network(source) -> NetworkSpec:
    """Parse and validate one JSON document (path, file object, or dict)."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    return network_from_json(doc)


def _entries(doc: dict, key: str):
    """(path, object) for each entry of the list doc[key]."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SpecError(key, "expected a list")
    for i, item in enumerate(items):
        path = f"{key}[{i}]"
        if not isinstance(item, dict):
            raise SpecError(path, "expected an object")
        yield path, item


def _known(value, names, path, what="vertex"):
    """`value` if it is a string in `names`; a SpecError naming `path`
    otherwise (a JSON list or object is never a name)."""
    if not isinstance(value, str) or value not in names:
        raise SpecError(path, f"unknown {what} {value!r}")
    return value


def _list(entry: dict, key: str, path: str) -> list:
    """entry[key], a list when present; [] when absent."""
    items = entry.get(key, [])
    if not isinstance(items, list):
        raise SpecError(f"{path}.{key}", "expected a list")
    return items


def network_from_json(doc: dict) -> NetworkSpec:
    if not isinstance(doc, dict):
        raise SpecError("$", "a network document must be a JSON object")
    vertices = {}
    for path, v in _entries(doc, "vertices"):
        name = v.get("name")
        if not name or not isinstance(name, str):
            raise SpecError(f"{path}.name", "vertex needs a name (a non-empty string)")
        if name in vertices:
            raise SpecError(path, f"duplicate vertex {name}")
        service = _parse_service(v.get("service"), f"{path}.service")
        tech = v.get("tech")
        try:
            tech_iv = (
                DelayInterval(0, 0) if tech is None else DelayInterval.from_json(tech)
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise SpecError(f"{path}.tech", str(exc)) from exc
        vertices[name] = VertexSpec(name, service, tech_iv)

    edge_set = set()
    for path, e in _entries(doc, "edges"):
        src = _known(e.get("from"), vertices, f"{path}.from")
        dst = _known(e.get("to"), vertices, f"{path}.to")
        if (src, dst) in edge_set:
            raise SpecError(path, f"duplicate edge {src}->{dst}")
        edge_set.add((src, dst))

    flows = {}
    for path, f in _entries(doc, "flows"):
        fid = f.get("id")
        if not fid or not isinstance(fid, str):
            raise SpecError(f"{path}.id", "flow needs an id (a non-empty string)")
        if fid in flows:
            raise SpecError(path, f"duplicate flow {fid}")
        source_v = _known(f.get("source"), vertices, f"{path}.source")
        dests = tuple(
            _known(d, vertices, f"{path}.destinations[{k}]")
            for k, d in enumerate(_list(f, "destinations", path))
        )
        if not dests:
            raise SpecError(f"{path}.destinations", "flow needs destinations")
        fedges = []
        for j, pair in enumerate(_list(f, "edges", path)):
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(x, str) for x in pair)
            ):
                raise SpecError(
                    f"{path}.edges[{j}]", "expected a [from, to] pair of vertex names"
                )
            u, v = pair
            if (u, v) not in edge_set:
                raise SpecError(
                    f"{path}.edges[{j}]", f"edge {u}->{v} not in the network"
                )
            fedges.append((u, v))
        arrival = parse_curve(f.get("arrival"), f"{path}.arrival")
        try:
            lmin = parse_rational(f.get("lmin", 1))
            lmax = parse_rational(f.get("lmax", lmin))
        except (ValueError, TypeError) as exc:
            raise SpecError(f"{path}.lmin", str(exc)) from exc
        if lmin <= 0:
            raise SpecError(f"{path}.lmin", "minimum data unit size must be > 0")
        if lmax < lmin:
            raise SpecError(f"{path}.lmax", "lmax must be >= lmin")
        raw = f.get("deadlines")
        if raw is not None and not isinstance(raw, dict):
            raise SpecError(f"{path}.deadlines", "expected an object")
        deadlines = {}
        for dest, value in (raw or {}).items():
            if dest not in dests:
                raise SpecError(
                    f"{path}.deadlines", f"{dest} is not a destination of {fid}"
                )
            try:
                deadlines[dest] = parse_rational(value)
            except (ValueError, TypeError) as exc:
                raise SpecError(f"{path}.deadlines.{dest}", str(exc)) from exc
        flows[fid] = FlowSpec(
            fid, source_v, dests, tuple(fedges), arrival, lmin, lmax, deadlines
        )

    placements = []
    for path, p in _entries(doc, "placements"):
        kind = _known(p.get("kind"), _KIND_RANK, f"{path}.kind", "function kind")
        vertex = _known(p.get("vertex"), vertices, f"{path}.vertex")
        pflows = frozenset(
            _known(fid, flows, f"{path}.flows[{k}]", "flow")
            for k, fid in enumerate(_list(p, "flows", path))
        )
        if not pflows:
            raise SpecError(f"{path}.flows", "placement needs at least one flow")
        reference = p.get("reference")
        timeout = p.get("timeout")
        mode = p.get("mode")
        shaping = None
        if kind in (POF, REG):
            _known(reference, vertices, f"{path}.reference", "reference vertex")
        if kind == REG:
            if mode not in (REG_PER_FLOW, REG_INTERLEAVED):
                raise SpecError(
                    f"{path}.mode", "regulator mode must be per-flow or interleaved"
                )
            shaping = {}
            raw = p.get("shaping") or {}
            if not isinstance(raw, dict):
                raise SpecError(f"{path}.shaping", "expected an object")
            for fid in sorted(pflows):
                if fid not in raw:
                    raise SpecError(
                        f"{path}.shaping", f"missing shaping curve for flow {fid}"
                    )
                shaping[fid] = parse_curve(raw[fid], f"{path}.shaping.{fid}")
        try:
            placements.append(
                FunctionPlacement(
                    kind, vertex, pflows, reference, timeout, mode, shaping
                )
            )
        except (ValueError, TypeError) as exc:
            raise SpecError(f"{path}.timeout", str(exc)) from exc

    network = NetworkSpec(vertices, flows, tuple(placements))
    _validate_semantics(network)
    return network


def _validate_semantics(network: NetworkSpec) -> None:
    ep = {}
    ancestors = {}
    for fid, flow in network.flows.items():
        flow.order  # raises on cycles
        reachable = _reach(flow.children, flow.source)
        for v in flow.vertices:
            if v not in reachable:
                raise SpecError(
                    f"flows[{fid}]", f"vertex {v} is not reachable from the source"
                )
        ep[fid] = ep_vertices(network, fid)  # raises on re-splits before elimination
        ancestors[fid] = diamond_ancestors(network, fid)

    by_vertex = {}
    for i, p in enumerate(network.placements):
        by_vertex.setdefault(p.vertex, []).append((i, p))

    for vertex, placed in by_vertex.items():
        last_rank = -1
        per_flow_kinds = {}
        for i, p in placed:
            rank = _KIND_RANK[p.kind]
            if rank < last_rank:
                raise SpecError(
                    f"placements[{i}]",
                    f"pipeline order at {vertex} must be PEFs, then POF, then REG",
                )
            last_rank = rank
            for fid in p.flows:
                seen = per_flow_kinds.setdefault(fid, set())
                if p.kind in seen:
                    raise SpecError(
                        f"placements[{i}]",
                        f"flow {fid} already has a {p.kind} at {vertex}",
                    )
                seen.add(p.kind)

    for i, p in enumerate(network.placements):
        for fid in sorted(p.flows):
            flow = network.flows[fid]
            if p.vertex not in flow.vertices:
                raise SpecError(
                    f"placements[{i}]", f"flow {fid} does not cross {p.vertex}"
                )
            if p.kind == PEF:
                parents = flow.parents[p.vertex]
                if len(parents) < 2 and not any(q in ep[fid] for q in parents):
                    raise SpecError(
                        f"placements[{i}]",
                        f"PEF for flow {fid} at {p.vertex} has no duplicates to "
                        "eliminate (vertex is not a merge nor downstream of one)",
                    )
            elif p.vertex in ep[fid]:
                raise SpecError(
                    f"placements[{i}]",
                    f"{p.kind} for flow {fid} cannot sit at the "
                    f"elimination-pending vertex {p.vertex}",
                )
            elif p.reference not in ancestors[fid][p.vertex] or p.reference == p.vertex:
                raise SpecError(
                    f"placements[{i}].reference",
                    f"{p.reference} is not a diamond ancestor of {p.vertex} "
                    f"for flow {fid}",
                )
