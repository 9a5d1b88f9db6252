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
import itertools
import json
from fractions import Fraction

from .minplus import (
    UNBOUNDED,
    Affine,
    ConcaveCurve,
    RateLatency,
    TokenBucket,
    _on_grid,
    _value,
    is_unbounded,
    parse_rational,
    rational_str,
)
from .record import FrozenRecord


class DelayInterval(FrozenRecord):
    """Closed delay interval [lo, hi]; hi may be UNBOUNDED."""

    _fields = ("lo", "hi")
    __slots__ = _fields + ("_width",)  # `width`, kept from its first use

    def __init__(self, lo, hi):
        lo = parse_rational(lo)
        if not is_unbounded(hi):
            hi = parse_rational(hi)
        if lo < 0:
            raise ValueError("delay lower bound must be >= 0")
        if hi < lo:
            raise ValueError("delay interval needs lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _unchecked(cls, lo: Fraction, hi) -> "DelayInterval":
        """The interval of endpoints already parsed and ordered, 0 <= lo <=
        hi, built without the checks of the public constructor."""
        interval = object.__new__(cls)
        object.__setattr__(interval, "lo", lo)
        object.__setattr__(interval, "hi", hi)
        return interval

    @property
    def width(self):
        """hi - lo, UNBOUNDED when hi is; worked out once per interval, as
        each flow crossing a port spreads its curve by the port's width."""
        try:
            return self._width
        except AttributeError:
            width = UNBOUNDED if is_unbounded(self.hi) else self.hi - self.lo
            object.__setattr__(self, "_width", width)
            return width

    def plus(self, other: "DelayInterval") -> "DelayInterval":
        hi = (
            UNBOUNDED
            if is_unbounded(self.hi) or is_unbounded(other.hi)
            else self.hi + other.hi
        )
        return DelayInterval._unchecked(self.lo + other.lo, hi)

    def to_json(self) -> dict:
        return {"lo": rational_str(self.lo), "hi": rational_str(self.hi)}

    @staticmethod
    def from_json(data) -> "DelayInterval":
        """The interval of a `[lo, hi]` pair or a `{"lo", "hi"}` object; a
        `hi` of "unbounded" or null is UNBOUNDED."""
        if isinstance(data, (list, tuple)) and len(data) == 2:
            lo, hi = data
        elif isinstance(data, dict) and "lo" in data and "hi" in data:
            lo, hi = data["lo"], data["hi"]
        else:
            raise ValueError('expected a [lo, hi] pair or a {"lo", "hi"} object')
        hi = UNBOUNDED if hi in ("unbounded", None) else hi
        return DelayInterval(parse_rational(lo), hi)


class VertexSpec(FrozenRecord):
    """An output port: `service` is a RateLatency, a ConcaveCurve or None
    for a pure delay element, `tech` its technological delay interval.  A
    pure delay element delays by `tech`; a served port delays by `tech.lo`
    plus its queueing term, and never reads `tech.hi`."""

    __slots__ = _fields = ("name", "service", "tech")

    def __init__(self, name: str, service=None, tech: DelayInterval = DelayInterval(0, 0)):
        self._set_fields(name, service, tech)


class FlowSpec(FrozenRecord):
    """A flow: `edges` are (src, dst) pairs forming a DAG rooted at `source`,
    `deadlines` maps a destination to a Fraction."""

    _fields = ("id", "source", "destinations", "edges", "arrival", "lmin", "lmax", "deadlines")
    __slots__ = _fields + ("__dict__",)  # the cached properties below live in __dict__

    def __init__(self, id: str, source: str, destinations: tuple, edges: tuple,
                 arrival: ConcaveCurve, lmin: Fraction, lmax: Fraction, deadlines: dict):
        self._set_fields(id, source, destinations, edges, arrival, lmin, lmax, deadlines)

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
        """The vertices in topological order; a cycle raises ValueError."""
        order = _topo(self.children, self.vertices)
        if len(order) != len(self.vertices):
            raise ValueError("flow graph has a cycle")
        return tuple(order)


PEF = "pef"
POF = "pof"
REG = "reg"

REG_PER_FLOW = "per-flow"
REG_INTERLEAVED = "interleaved"

_KIND_RANK = {PEF: 0, POF: 1, REG: 2}


class FunctionPlacement(FrozenRecord):
    """A PEF, POF or REG at `vertex` for the `flows` (a frozenset).  A POF
    or REG cuts the flow at `reference`, its upstream cut point; a POF's
    `timeout` of None means no timeout; a REG has a `mode` (per-flow or
    interleaved) and `shaping`, a map from flow id to ConcaveCurve."""

    __slots__ = _fields = ("kind", "vertex", "flows", "reference", "timeout", "mode", "shaping")

    def __init__(self, kind: str, vertex: str, flows: frozenset, reference: str | None = None,
                 timeout: Fraction | None = None, mode: str | None = None,
                 shaping: dict | None = None):
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown function kind {kind!r}")
        if timeout is not None:
            timeout = parse_rational(timeout)
            if timeout < 0:
                raise ValueError("timeout must be >= 0")
        self._set_fields(kind, vertex, flows, reference, timeout, mode, shaping)


class NetworkSpec(FrozenRecord):
    """`vertices` maps a name to its VertexSpec, `flows` an id to its
    FlowSpec; `placements` holds the FunctionPlacements, in pipeline order
    within a vertex."""

    __slots__ = _fields = ("vertices", "flows", "placements")

    def __init__(self, vertices: dict, flows: dict, placements: tuple):
        self._set_fields(vertices, flows, placements)


# ---------------------------------------------------------------------------
# graph predicates


def ep_vertices(network: NetworkSpec, flow_id: str) -> set:
    """Vertices where duplicates of a data unit of the flow can be present.

    A vertex with two or more parents in the flow DAG and no PEF for the
    flow is elimination-pending, and so is any child of an EP vertex that
    has no PEF.  (The loader rejects an EP vertex that re-splits the flow:
    duplicates may not diverge again before being eliminated.)
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


def _reached(flow: FlowSpec, a: str, n: str) -> dict:
    """The forward walk of the section a -> n: each vertex reached from a,
    in the flow's order up to n, mapped to its reached parents, a first
    with none; a alone when the flow does not cross a."""
    reached = {a: ()}
    if a in flow.vertices:
        order = flow.order
        for v in order[order.index(a) + 1:]:
            parents = [p for p in flow.parents[v] if p in reached]
            if parents:
                reached[v] = parents
            if v == n:
                break
    return reached


def path_delay_bounds(flow: FlowSpec, a: str, n: str, delay_of: dict) -> DelayInterval:
    """[min, max] over the flow's a -> n paths of the summed delay of inner
    vertices.

    The endpoints themselves do not contribute: the bounds cover the section
    between the output of `a` and the input of `n`'s local functions.
    `delay_of` maps each vertex reached from `a` to its DelayInterval.  One
    walk over the vertices that the forward walk from `a` to `n` reaches
    (`_reached`) bounds each over its reached parents, so every a -> n path
    is summed on the way.

    The walk sums integers: the delay ends of the inner vertices go on one
    grid, the lcm of their denominators (an `Affine` end by its value), and
    an UNBOUNDED end counts more ticks than all finite ends together.  Each
    vertex keeps the parent its bounds came from, the first among equals, so
    an `Affine` bound is summed again along its own path.
    """
    if a == n:
        return DelayInterval(0, 0)
    reached = _reached(flow, a, n)
    if n not in reached:
        raise ValueError(f"no path from {a} to {n}")
    order = list(reached)
    inner = order[1:-1]
    los = [delay_of[v].lo for v in inner]
    his = [delay_of[v].hi for v in inner]
    ends = los + [0 if is_unbounded(x) else x for x in his]
    affine = any(type(x) is Affine for x in ends)
    grid, ticks = _on_grid([_value(x) for x in ends] if affine else ends)
    # the ends are >= 0: a path through an UNBOUNDED end, counted as `over`
    # ticks, sums more than every path of finite ends
    over = 1 + sum(ticks)
    hi_ticks = [over if is_unbounded(x) else t for x, t in zip(his, ticks[len(los):])]
    cost = dict(zip(inner, zip(ticks, hi_ticks)))
    cost[a] = (0, 0)
    lo, hi = {a: 0}, {a: 0}
    lo_from, hi_from = {}, {}
    for v in order[1:]:
        for p in reached[v]:
            p_lo, p_hi = cost[p]
            cand_lo, cand_hi = lo[p] + p_lo, hi[p] + p_hi
            if v not in lo or cand_lo < lo[v]:
                lo[v], lo_from[v] = cand_lo, p
            if v not in hi or cand_hi > hi[v]:
                hi[v], hi_from[v] = cand_hi, p
    if not affine:
        lo_end = Fraction(lo[n], grid)
        hi_end = UNBOUNDED if hi[n] >= over else Fraction(hi[n], grid)
    else:  # the forms, summed again along the paths of the bounds
        lo_end = sum((delay_of[v].lo for v in _traced(lo_from, a, n)), Fraction(0))
        hi_end = UNBOUNDED if hi[n] >= over else sum(
            (delay_of[v].hi for v in _traced(hi_from, a, n)), Fraction(0)
        )
    return DelayInterval._unchecked(lo_end, hi_end)  # sums of parsed, ordered endpoints


def _traced(came_from: dict, a: str, n: str) -> list:
    """The vertices strictly between a and n on the path that `came_from`
    traces back from n, in flow order."""
    path = []
    v = came_from[n]
    while v != a:
        path.append(v)
        v = came_from[v]
    path.reverse()
    return path


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
# JSON loading and validation.  The readers here are shared with the scenario
# loader (`sim.engine`): every fault they report is a SpecError that names
# its JSON path.


class SpecError(ValueError):
    """Validation failure; `path` points into the offending JSON document."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


def bundled_dir():
    """The directory of the network and scenario corpus shipped in the
    package.  `importlib.resources` is imported here, on the first
    `bundled:` input, so a run on filesystem paths never loads it."""
    from importlib import resources

    return resources.files("redcalc").joinpath("data")


def _json_load(fh):
    try:
        return json.load(fh)
    except RecursionError:
        raise SpecError("$", "the document nests too deeply") from None


def _read_document(source, parse):
    """`parse` applied to one JSON document: a dict, an open file, a
    filesystem path, or a file of the package (`bundled_dir`)."""
    if isinstance(source, dict):
        return parse(source)
    if hasattr(source, "read"):
        return parse(_json_load(source))
    opener = source.open if hasattr(source, "open") else functools.partial(open, source)
    with opener(encoding="utf-8") as fh:
        return parse(_json_load(fh))


def _parsed(parse, data, path: str, what: str = ""):
    """`parse(data)`; a ValueError, KeyError or TypeError it raises becomes a
    SpecError that names `path`, its message after the prefix `what`."""
    try:
        return parse(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(path, f"{what}{exc}") from exc


def _rational(value, path: str) -> Fraction:
    return _parsed(parse_rational, value, path)


def _typed(value, kind: type, path: str):
    """`value`, once checked to be a JSON object, list, string or boolean."""
    if not isinstance(value, kind):
        raise SpecError(path, f"expected {_KIND_NAMES[kind]}")
    return value


def _required(obj: dict, key: str, path: str):
    if key not in obj:
        raise SpecError(path, "required key is missing")
    return obj[key]


def _known(value, names, path, what="vertex"):
    """`value` if it is a string in `names`; a SpecError naming `path`
    otherwise (a JSON list or object is never a name)."""
    if not isinstance(value, str) or value not in names:
        raise SpecError(path, f"unknown {what} {value!r}")
    return value


def _segment(data, path) -> TokenBucket:
    """The token bucket of a `{"rate", "burst"}` object."""
    if not isinstance(data, dict) or "rate" not in data or "burst" not in data:
        raise SpecError(path, 'bad curve: expected a {"rate", "burst"} object')
    return _parsed(lambda d: TokenBucket(d["rate"], d["burst"]), data, path, "bad curve: ")


def parse_curve(data, path) -> ConcaveCurve:
    """Curve from `{"segments": [...]}`, a non-empty list of `{"rate",
    "burst"}` objects, or from one `{"rate", "burst"}` object; a bad one
    raises a SpecError that names `path`, or `<path>.segments[i]` for a bad
    segment."""
    if not isinstance(data, dict) or ("segments" not in data and "rate" not in data):
        raise SpecError(path, "expected a curve object")
    if "segments" not in data:
        return ConcaveCurve((_segment(data, path),))
    at = f"{path}.segments"
    segments = _typed(data["segments"], list, at)
    if not segments:
        raise SpecError(at, "bad curve: a concave curve needs at least one segment")
    return ConcaveCurve([_segment(s, f"{at}[{i}]") for i, s in enumerate(segments)])


def _parse_service(data, path):
    if data is None:
        return None
    if isinstance(data, dict) and "segments" in data:
        return parse_curve(data, path)
    if isinstance(data, dict) and "rate" in data and "latency" in data:
        return _parsed(
            lambda d: RateLatency(d["rate"], d["latency"]),
            data,
            path,
            "bad rate-latency service: ",
        )
    raise SpecError(path, "service must be rate-latency, curve segments, or null")


def load_network(source) -> NetworkSpec:
    """Parse and validate one JSON document (path, file object, or dict)."""
    return _read_document(source, network_from_json)


def _entries(doc: dict, key: str):
    """(path, object) for each entry of the list doc[key]."""
    for i, item in enumerate(_typed(doc.get(key, []), list, key)):
        path = f"{key}[{i}]"
        yield path, _typed(item, dict, path)


def _list(entry: dict, key: str, path: str) -> list:
    """entry[key], a list when present; [] when absent."""
    return _typed(entry.get(key, []), list, f"{path}.{key}")


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
        tech_iv = (
            DelayInterval(0, 0)
            if tech is None
            else _parsed(DelayInterval.from_json, tech, f"{path}.tech")
        )
        if is_unbounded(tech_iv.hi):
            raise SpecError(f"{path}.tech", "a technological delay needs a finite upper end")
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
        lmin = _rational(f.get("lmin", 1), f"{path}.lmin")
        lmax = _rational(f.get("lmax", lmin), f"{path}.lmax")
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
            deadlines[dest] = _rational(value, f"{path}.deadlines.{dest}")
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
            raw = _typed(p.get("shaping") or {}, dict, f"{path}.shaping")
            for fid in raw:
                if fid not in pflows:
                    raise SpecError(
                        f"{path}.shaping.{fid}", f"the regulator does not list flow {fid}"
                    )
            for fid in sorted(pflows):
                if fid not in raw:
                    raise SpecError(
                        f"{path}.shaping", f"missing shaping curve for flow {fid}"
                    )
                shaping[fid] = parse_curve(raw[fid], f"{path}.shaping.{fid}")
        placements.append(
            _parsed(
                lambda t: FunctionPlacement(kind, vertex, pflows, reference, t, mode, shaping),
                timeout,
                f"{path}.timeout",
            )
        )

    network = NetworkSpec(vertices, flows, tuple(placements))
    _validate_semantics(network)
    return network


def _validate_semantics(network: NetworkSpec) -> None:
    ep = {}
    ancestors = {}
    for index, (fid, flow) in enumerate(network.flows.items()):
        path = f"flows[{index}]"  # flows keep their document order
        order = _parsed(lambda f: f.order, flow, f"{path}.edges")
        reachable = _reach(flow.children, flow.source)
        for v in itertools.chain(*flow.edges, flow.destinations):  # in document order
            if v not in reachable:
                raise SpecError(path, f"vertex {v} is not reachable from the source")
        ancestors[fid] = diamond_ancestors(network, fid)
        # a vertex is EP exactly when it is not its own diamond ancestor
        ep[fid] = {v for v, anc in ancestors[fid].items() if v not in anc}
        for v in order:
            if v in ep[fid] and len(flow.children[v]) > 1:
                raise SpecError(
                    path,
                    f"vertex {v} re-splits the flow while duplicates are "
                    "still pending elimination",
                )

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
