"""Per-layer tracing and the minplus micro-benchmark.

The tracer wraps redcalc's public functions where the calling module binds
them (for example `redcalc.tfa.add` or `redcalc.cli.load_network`), so no
file under `src/` changes.  Each wrapped call appends one span
[layer, parent span, start, end] to an in-memory list, and the spans become
per-layer numbers only after the traced batch ends.  A layer's self time
is its span time minus the time of its wrapped child spans.
"""

import functools
import importlib
import json
import random
import statistics
import time

from redcalc import minplus, tfa
from redcalc.sim import engine

# span name -> the (module or class, attribute) bindings it wraps
SPANS = {
    "cli.parse": [("redcalc.cli", "build_parser")],
    "cli.emit": [
        ("redcalc.cli", "_emit"),
        (tfa.AnalysisReport, "to_json"),
        (tfa.AnalysisReport, "to_csv"),
        (engine.Trace, "to_csv"),
    ],
    "topology.load": [("redcalc.cli", "load_network")],
    "topology.diamond_ancestors": [
        ("redcalc.tfa", "diamond_ancestors"),
        ("redcalc.topology", "diamond_ancestors"),
    ],
    "topology.ep_vertices": [
        ("redcalc.tfa", "ep_vertices"),
        ("redcalc.topology", "ep_vertices"),
    ],
    "topology.path_delay_bounds": [("redcalc.tfa", "path_delay_bounds")],
    "minplus.add": [("redcalc.tfa", "add"), ("redcalc.redundancy", "add")],
    "minplus.convolve": [("redcalc.redundancy", "convolve")],
    "minplus.h_dev": [("redcalc.tfa", "h_dev"), ("redcalc.regulators", "h_dev")],
    "minplus.deconvolve_delay": [
        ("redcalc.redundancy", "deconvolve_delay"),
        ("redcalc.regulators", "deconvolve_delay"),
    ],
    "redundancy.pef_output_curve": [("redcalc.tfa", "pef_output_curve")],
    "redundancy.lossy_jitter_output_curve": [
        ("redcalc.tfa", "lossy_jitter_output_curve"),
        ("redcalc.redundancy", "lossy_jitter_output_curve"),
    ],
    "regulators": [
        ("redcalc.tfa", "ir_after_pef_verdict"),
        ("redcalc.tfa", "pfr_after_pef_bounds"),
        ("redcalc.tfa", "pfr_after_pef_rto"),
        ("redcalc.tfa", "preof_for_free_bounds"),
        ("redcalc.sim.generators", "ir_q_min"),
    ],
    "tfa.analyze": [("redcalc.cli", "analyze"), ("redcalc.tfa", "analyze")],
    "sim.gen": [("redcalc.sim", "gen_adversarial_ir")],
    "sim.run": [("redcalc.sim", "run_scenario"), ("redcalc.cli", "run_scenario")],
    "sim.compliance": [("redcalc.sim", "check_compliance")],
    "sim.reordering": [("redcalc.sim", "measure_reordering")],
    "sim.delays": [(engine.Trace, "delays")],
}

# layers reported as call count and self time
COUNTED = [
    "topology.diamond_ancestors",
    "topology.ep_vertices",
    "topology.path_delay_bounds",
    "minplus.add",
    "minplus.convolve",
    "minplus.h_dev",
    "minplus.deconvolve_delay",
    "redundancy.pef_output_curve",
    "redundancy.lossy_jitter_output_curve",
    "regulators",
]
# layers reported as the total time inside their spans
TIMED = [
    "cli.parse",
    "cli.emit",
    "topology.load",
    "tfa.analyze",
    "sim.gen",
    "sim.run",
    "sim.compliance",
    "sim.reordering",
    "sim.delays",
]

# minplus primitives replayed by the micro-benchmark; ConcaveCurve is the
# constructor, which normalizes its segments
MICRO = {
    "add": minplus.add,
    "convolve": minplus.convolve,
    "h_dev": minplus.h_dev,
    "deconvolve_delay": minplus.deconvolve_delay,
    "ConcaveCurve": minplus.ConcaveCurve,
}


def _owner(target):
    return importlib.import_module(target) if isinstance(target, str) else target


class _ModuleView:
    """Stands in for a module binding, with some of its functions replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans while installed (`with tracer:`); see `summary()`."""

    def __init__(self):
        self.spans = []
        self.reports = []
        self._stack = []
        self._patches = _Patches()

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _trace_parse_args(self, parser):
        parser.parse_args = self._wrap("cli.parse", parser.parse_args)

    def __enter__(self):
        after = {"cli.parse": self._trace_parse_args, "tfa.analyze": self.reports.append}
        for name, bindings in SPANS.items():
            for target, attr in bindings:
                owner = _owner(target)
                wrapped = self._wrap(name, getattr(owner, attr), after.get(name))
                self._patches.set(owner, attr, wrapped)
        # cli serializes reports with json.dumps before writing them
        cli = _owner("redcalc.cli")
        dumps = self._wrap("cli.emit", json.dumps)
        self._patches.set(cli, "json", _ModuleView(json, dumps=dumps))
        return self

    def __exit__(self, *exc):
        self._patches.undo()

    def summary(self):
        """Per-layer metrics of everything traced since the tracer was made."""
        calls, total, self_s = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, _parent, start, end) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

        out = {}
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in TIMED:
            out[f"{name}_s"] = total.get(name, 0.0)
        sweeps = sum(r.iterations for r in self.reports)
        out["tfa.sweeps"] = sweeps
        # every analysis runs one more sweep that records the site reports
        passes = sweeps + len(self.reports)
        out["tfa.s_per_sweep"] = out["tfa.analyze_s"] / passes if passes else 0.0
        out["minplus.max_segments"], out["minplus.max_den_bits"] = curve_health(self.reports)
        return out


def curve_health(reports):
    """Largest segment count and largest denominator bit length in reports."""
    curves = []
    numbers = []
    for r in reports:
        for s in r.pef_sites:
            curves += [s["tight_curve"], s["intuitive_curve"]]
        curves += [s["output_curve"] for s in r.pof_sites]
        for interval in [res.interval for res in r.results] + list(r.vertex_delays.values()):
            numbers += [interval.lo, interval.hi]
    max_segments = 0
    for c in curves:
        if c is None:
            continue
        max_segments = max(max_segments, len(c.segments))
        for s in c.segments:
            numbers += [s.rate, s.burst]
    max_bits = max(
        (x.denominator.bit_length() for x in numbers if not minplus.is_unbounded(x)),
        default=0,
    )
    return max_segments, max_bits


class Capture:
    """Keeps a seeded uniform sample of the arguments of the MICRO primitives.

    While installed it wraps the same bindings as the tracer and the
    ConcaveCurve constructor; each primitive keeps at most `size` argument
    tuples (reservoir sampling), so the sample does not depend on call count.
    """

    def __init__(self, seed, size=64):
        self.samples = {name: [] for name in MICRO}
        self._seen = dict.fromkeys(MICRO, 0)
        self._rng = random.Random(seed)
        self._size = size
        self._patches = _Patches()

    def _keep(self, name, args):
        self._seen[name] += 1
        sample = self.samples[name]
        if len(sample) < self._size:
            sample.append(args)
        else:
            j = self._rng.randrange(self._seen[name])
            if j < self._size:
                sample[j] = args

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def kept(*args):
            self._keep(name, args)
            return fn(*args)

        return kept

    def __enter__(self):
        for name in MICRO:
            for target, attr in SPANS.get(f"minplus.{name}", []):
                owner = _owner(target)
                self._patches.set(owner, attr, self._wrap(name, getattr(owner, attr)))
        init = minplus.ConcaveCurve.__init__

        def kept_init(curve, segments):
            segments = list(segments)
            self._keep("ConcaveCurve", (segments,))
            init(curve, segments)

        self._patches.set(minplus.ConcaveCurve, "__init__", kept_init)
        return self

    def __exit__(self, *exc):
        self._patches.undo()


def micro_benchmark(samples, min_time=0.02, repeats=5):
    """ns per call of each MICRO primitive, replaying its captured sample.

    Each repeat loops over the sample until it has run for `min_time`; the
    result is the median over repeats.  An empty sample reports 0.
    """
    out = {}
    for name, fn in MICRO.items():
        sample = samples[name]
        if not sample:
            out[f"minplus.{name}.ns_per_call"] = 0.0
            continue
        t0 = time.perf_counter()
        for args in sample:
            fn(*args)
        once = time.perf_counter() - t0
        loops = max(1, int(min_time / max(once, 1e-9)))
        per_call = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for _ in range(loops):
                for args in sample:
                    fn(*args)
            per_call.append((time.perf_counter_ns() - t0) / (loops * len(sample)))
        out[f"minplus.{name}.ns_per_call"] = statistics.median(per_call)
    return out
