"""Seeded inputs, units of work and correctness checks for each workload.

A workload is a fixed batch of operations built from `--seed`.  Each
operation is one call into a public entry point of redcalc (`cli.main`, or
one generate+replay+measure pass of `redcalc.sim`).  Its output is kept until
the batch ends and is then checked.  Nothing here times anything: `run.py`
does the timing and `tracing.py` the per-layer accounting.

Grid inputs come from a fixed pool of `POOL` networks per size.  The hop
structure of every grid is pinned (`random.Random(1)`); a pool member draws
only its own flow bursts.  The seed picks which members a run uses, so the
work per run barely moves between seeds while the inputs differ, and the
exact outputs of every member are recorded once in `expected.json`.
"""

import hashlib
import json
import math
import os
import random
from fractions import Fraction

from redcalc import cli, sim

POOL = 16

SIZES = {
    "full": {
        "ff-grid": {"n": 64, "w": 16, "max_hops": 8, "per_batch": 5},
        "cyclic-grid": {"n": 32, "w": 12, "max_hops": 6, "per_batch": 4},
        "sim-ir": {"periods": 800},
        "corpus-cli": {"passes": 10},
    },
    "small": {
        "ff-grid": {"n": 8, "w": 6, "max_hops": 3, "per_batch": 2},
        "cyclic-grid": {"n": 6, "w": 4, "max_hops": 2, "per_batch": 2},
        "sim-ir": {"periods": None},  # the fewest periods the checks accept
        "corpus-cli": {"passes": 1},
    },
}

# gen_adversarial_ir(rate, burst, d1, D1, d2, D2, q): branch delays [0,1] and
# [6,7] with thirteen flows, enough to destabilize the interleaved regulator
IR_PARAMS = (1, 1, 0, 1, 6, 7)
IR_Q = 13
IR_CHECKED_PERIODS = 51

CHAIN_LATENCY = Fraction(1, 10)
CHAIN_TECH = "1/100"
LMIN = 1


# stands in for the recorded outputs while `run.py --record` makes them
RECORDING = object()


class CheckFailed(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _frac(text):
    return None if text == "unbounded" else Fraction(text)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- input generators --------------------------------------------------------


def diamond_grid(n, w, max_hops, member, cyclic):
    """Diamond grid network document and the delay floor of every flow.

    Two chains A0..A{w-1} and B0..B{w-1} of rate-latency switches (rate
    2n+5, latency 1/10, technological delay 1/100).  Flow i replicates at
    its own source S_i onto the same hop range of both chains and is
    eliminated by a PEF at its own merge M_i.  In the cyclic variant odd
    flows cross the chains in reverse, so the union graph has cycles.  Hop
    ranges come from random.Random(1); `member` seeds only the flow bursts.

    The floor of a flow is hops * (1/10 + lmin/(2n+5)): the delay a lone unit
    realizably pays on either branch, which no upper bound may undercut.
    """
    rate = 2 * n + 5
    hops_rng = random.Random(1)
    burst_rng = random.Random(member)
    vertices = [
        {
            "name": f"{c}{j:03d}",
            "service": {"rate": str(rate), "latency": str(CHAIN_LATENCY)},
            "tech": {"lo": CHAIN_TECH, "hi": CHAIN_TECH},
        }
        for c in "AB"
        for j in range(w)
    ]
    edges = set()
    flows = []
    placements = []
    floors = {}
    per_hop = CHAIN_LATENCY + Fraction(LMIN, rate)
    for i in range(n):
        src, merge, fid = f"S{i:03d}", f"M{i:03d}", f"f{i:03d}"
        vertices += [{"name": src}, {"name": merge}]
        length = hops_rng.randint(1, max_hops)
        first = hops_rng.randrange(w - length + 1)
        hops = list(range(first, first + length))
        if cyclic and i % 2:
            hops.reverse()
        fedges = []
        for c in "AB":
            path = [src] + [f"{c}{j:03d}" for j in hops] + [merge]
            fedges += zip(path, path[1:])
        edges.update(fedges)
        flows.append(
            {
                "id": fid,
                "source": src,
                "destinations": [merge],
                "edges": [list(e) for e in fedges],
                "arrival": {"rate": "1", "burst": str(burst_rng.randint(1, 3))},
                "lmin": str(LMIN),
            }
        )
        placements.append({"kind": "pef", "vertex": merge, "flows": [fid]})
        floors[fid] = length * per_hop
    doc = {
        "vertices": vertices,
        "edges": [{"from": u, "to": v} for u, v in sorted(edges)],
        "flows": flows,
        "placements": placements,
    }
    return doc, floors


# -- workloads ---------------------------------------------------------------


class Op:
    """One unit of work.

    `run()` returns the output; `check(output)` raises CheckFailed on a
    wrong output and otherwise returns the operation's counters
    (`bound_sum` on the analyzer workloads, `events` on sim-ir).
    """

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """The fixed batch of one workload for one seed and size.

    `inputs_sha256` digests every generated input, so two runs can show
    that another seed means other inputs.  `record()` returns the exact
    outputs that `expected.json` stores for this workload and size; while
    it runs, `expected` is RECORDING and the checks skip the comparison.
    """

    name = ""

    @staticmethod
    def between_stages():
        """Called between the stages of a long operation; the runner may time
        its speed probe here and subtracts that time from the operation."""

    def __init__(self, seed, size, workdir, expected):
        self.seed = seed
        self.size = size
        self.params = SIZES[size][self.name]
        self.workdir = workdir
        self.expected = expected.get(size, {}).get(self.name)
        self._digest = hashlib.sha256()
        self.ops = self._build()

    @property
    def inputs_sha256(self):
        return self._digest.hexdigest()

    def _note_input(self, text):
        self._digest.update(text.encode())

    def _path(self, filename):
        return os.path.join(self.workdir, filename)

    def _build(self):
        raise NotImplementedError

    def record(self):
        raise NotImplementedError


class FFGrid(Workload):
    """Feed-forward grids through `redcalc compare`: one exact sweep per model."""

    name = "ff-grid"
    cyclic = False
    command = "compare"

    def _build(self):
        members = random.Random(self.seed).sample(range(POOL), self.params["per_batch"])
        return [self._op(m, self._expected_of(m)) for m in members]

    def _expected_of(self, member):
        if self.expected is RECORDING:
            return RECORDING
        return (self.expected or {}).get(str(member))

    def _op(self, member, expected):
        p = self.params
        doc, floors = diamond_grid(p["n"], p["w"], p["max_hops"], member, self.cyclic)
        text = json.dumps(doc)
        self._note_input(text)
        net = self._path(f"{self.name}-{member}.json")
        with open(net, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = self._path(f"{self.name}-{member}.out.json")
        argv = [self.command, "--in", net, "--out", out]
        if self.cyclic:
            argv += ["--model", "tight"]
        return Op(
            f"{self.name}:{member}",
            lambda: cli.main(argv),
            lambda rc: self._check(rc, out, floors, expected),
        )

    def _check(self, rc, out, floors, expected):
        _require(rc == 0, f"compare exit code {rc}, expected 0")
        doc = _load(out)
        for model in ("tight", "intuitive"):
            report = doc[model]
            _require(report["status"] == "Converged", f"{model}: status {report['status']}")
            _require(report["iterations"] == 1, f"{model}: {report['iterations']} sweeps")
        total = Fraction(0)
        for pair in doc["pairs"]:
            fid = pair["flow"]
            tight = _frac(pair["tight"]["hi"])
            intuitive = _frac(pair["intuitive"]["hi"])
            _require(tight is not None and tight >= floors[fid], f"{fid}: tight bound below the floor")
            _require(intuitive is None or intuitive >= tight, f"{fid}: tight bound above intuitive")
            total += tight
        if expected is not RECORDING:
            _require(_sha256(out) == expected, "report differs from the recorded digest")
        return {"bound_sum": total}

    def _recorded(self, out):
        return _sha256(out)

    def record(self):
        recorded = {}
        for member in range(POOL):
            op = self._op(member, RECORDING)
            op.check(op.run())
            recorded[str(member)] = self._recorded(self._path(f"{self.name}-{member}.out.json"))
        return recorded


class CyclicGrid(FFGrid):
    """Cyclic grids through `redcalc analyze --model tight`: the fixed point."""

    name = "cyclic-grid"
    cyclic = True
    command = "analyze"

    def _check(self, rc, out, floors, expected):
        _require(rc == 0, f"analyze exit code {rc}, expected 0")
        doc = _load(out)
        _require(doc["status"] == "Converged", f"status {doc['status']}")
        results = doc["results"]
        if expected is not RECORDING:
            _require(expected is not None, "no recorded bounds for this grid")
            _require(len(results) == len(expected["lo"]), "result count changed")
        total = Fraction(0)
        for i, r in enumerate(results):
            fid = r["flow"]
            hi = _frac(r["interval"]["hi"])
            _require(hi is not None and hi >= floors[fid], f"{fid}: bound below the floor")
            if expected is not RECORDING:
                _require(r["interval"]["lo"] == expected["lo"][i], f"{fid}: lower bound changed")
                _require(hi <= Fraction(expected["hi"][i]), f"{fid}: upper bound rose")
            total += hi
        return {"bound_sum": total}

    def _recorded(self, out):
        results = _load(out)["results"]
        return {
            "lo": [r["interval"]["lo"] for r in results],
            "hi": [r["interval"]["hi"] for r in results],
        }


class SimIR(Workload):
    """The adversarial interleaved-regulator trajectory: simulator, no analyzer."""

    name = "sim-ir"

    def _build(self):
        self.periods = self._periods()
        # the seed shifts the whole schedule; delays and offsets are shift-invariant
        self.x1 = Fraction(random.Random(self.seed).randrange(1, 10**6), 997)
        self._note_input(f"{IR_PARAMS} q={IR_Q} periods={self.periods} x1={self.x1}")
        return [Op(f"{self.name}:{self.periods}", self._run, self._check)]

    def _periods(self):
        periods = self.params["periods"]
        if periods is not None:
            return periods
        # the rule of test_acceptance.py test_07: enough periods for the delay to pass 10 * max(D1, D2)
        r, b, d1, D1, d2, D2 = IR_PARAMS
        meta = sim.gen_adversarial_ir(r, b, d1, D1, d2, D2, q=IR_Q, periods=1).meta
        need = (10 * max(D1, D2) + meta["D"]) / meta["divergence_step"]
        return max(IR_CHECKED_PERIODS, math.ceil(need) + 2)

    def _run(self):
        sc = sim.gen_adversarial_ir(*IR_PARAMS, q=IR_Q, periods=self.periods, x1=self.x1)
        self.between_stages()
        trace = sim.run_scenario(sc)
        self.between_stages()
        generated = {}
        for e in trace.of_kind(sim.GENERATED):
            generated.setdefault(e.flow, []).append((e.time, e.size))
        compliance = [
            sim.check_compliance(events, sc.flows[fid].arrival)
            for fid, events in generated.items()
        ]
        self.between_stages()
        rank = {u.key: i for i, u in enumerate(sorted(sc.sources, key=lambda u: u.time))}
        reordering = sim.measure_reordering(
            (rank[(e.flow, e.unit)], e.time, e.size) for e in trace.of_kind(sim.PEF_EXIT)
        )
        self.between_stages()
        return sc, trace, compliance, reordering, trace.delays()

    def _check(self, output):
        sc, trace, compliance, reordering, delays = output
        step, D = sc.meta["divergence_step"], sc.meta["D"]
        for k in range(IR_CHECKED_PERIODS):
            _require(delays[("f1", f"m1_{k}")] >= -D + k * step, f"f1/m1_{k} delay too small")
        _require(all(c is None for c in compliance), "a source violates its arrival curve")
        _require(sim.is_fifo_per_flow(trace, sim.PEF_EXIT), "PEF exit is not FIFO per flow")
        _require(trace.lost_units() == [], "units were lost")
        _require(len(trace.of_kind(sim.PEF_EXIT)) == len(sc.sources), "PEF exit count")
        _require(max(delays.values()) > 10 * max(IR_PARAMS[3], IR_PARAMS[5]), "no divergence")
        if self.expected is not RECORDING:
            _require(
                [str(x) for x in reordering] == self.expected,
                "reordering offsets differ from the recorded ones",
            )
        return {"events": len(trace.events)}

    def record(self):
        output = self._run()
        self._check(output)
        return [str(x) for x in output[3]]


class CorpusCLI(Workload):
    """The bundled corpus through `compare` and `verify`, several passes."""

    name = "corpus-cli"

    def _build(self):
        networks = [n for n in cli.bundled_names() if n.startswith("net-")]
        with cli.bundled_dir().joinpath("pairs.json").open(encoding="utf-8") as fh:
            pairs = json.load(fh)
        calls = [("compare", ["compare", "--in", f"bundled:{n}"], n) for n in networks]
        for p in pairs:
            argv = [
                "verify",
                "--scenario", f"bundled:{p['scenario']}",
                "--network", f"bundled:{p['network']}",
                "--model", p["model"],
            ]
            calls.append(("verify", argv + (["--lossless"] if p["lossless"] else []), None))
        rng = random.Random(self.seed)
        ops = []
        for rep in range(self.params["passes"]):
            order = calls[:]
            rng.shuffle(order)
            for i, (kind, argv, net) in enumerate(order):
                self._note_input(json.dumps(argv))
                out = self._path(f"{self.name}-{rep}-{i}.out.json")
                ops.append(self._op(kind, argv + ["--out", out], out, net))
        return ops

    def _op(self, kind, argv, out, net):
        expected_rc = 2 if net == "net-ir-instability.json" else 0
        return Op(
            f"{self.name}:{' '.join(argv[:3])}",
            lambda: cli.main(argv),
            lambda rc: self._check(kind, rc, expected_rc, out),
        )

    def _check(self, kind, rc, expected_rc, out):
        _require(rc == expected_rc, f"{kind} exit code {rc}, expected {expected_rc}")
        doc = _load(out)
        if kind == "verify":
            _require(doc["sound"] is True, "verify is not sound")
            return {}
        total = Fraction(0)
        for r in doc["tight"]["results"]:
            hi = _frac(r["interval"]["hi"])
            if hi is not None:
                total += hi
        return {"bound_sum": total}

    def record(self):
        return None


WORKLOADS = {w.name: w for w in (FFGrid, CyclicGrid, SimIR, CorpusCLI)}
