"""redcalc benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ff-grid --seed 1 --seconds 20 --trace 0

Workloads (the reason for each is in BENCHMARK.json): ff-grid, cyclic-grid,
sim-ir, corpus-cli.  The seed makes the inputs; the program sees only those.
One run times fresh-interpreter imports (set-up), builds the inputs, runs one
unit of work to warm up, then repeats the workload's fixed batch until
`--seconds` have passed (at least three times), checking every output.  It
runs in one process and one thread.

Times of the workload are calibrated to machine speed.  On a shared host
the raw speed drifts by a quarter within minutes.  Between operations the
run times a fixed piece of exact-rational work that does not use redcalc
(the speed probe), and every time it reports, except the set-up time, is
scaled by (PROBE_NOMINAL_S / median probe time) ** PROBE_ELASTICITY: an
estimate of the time on a machine where the probe takes PROBE_NOMINAL_S.
The probe is compute-bound and small; the workloads touch more memory and
slow down less than the probe does when the host is busy.  Over ten runs
of cyclic-grid and ff-grid on a 2-vCPU shared host their times moved as
the probe time to the power 0.66, hence the elasticity of 2/3.  Set-up
time, mostly reading and unmarshalling modules, does not follow the probe
and is reported raw.  The summary lines also give the raw figures.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced batches and prints the per-layer metrics, then replays a seeded
sample of minplus calls captured from one cyclic-grid analysis.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it give the
environment and every metric in words.  The exit code is 0 only when every
check passed.

`--size small` runs every workload and every check in a few seconds.
`--record` recomputes `bench/expected.json`, the exact outputs the checks
compare against; run it only when outputs are meant to change.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

MIN_BATCHES = 3
SETUP_RUNS = 15
SETUP_CODE = (
    "import time; t = time.perf_counter(); import redcalc.cli; "
    "print(time.perf_counter() - t)"
)

PROBE_SIZE = 800
PROBE_NOMINAL_S = 0.015  # about the median probe time on the 2-vCPU host the bounds were set on
PROBE_EVERY_S = 0.25
PROBE_BURST = 20
PROBE_ELASTICITY = 2 / 3

# per-layer metrics that are exact counts and must repeat bit-for-bit
EXACT_SUFFIXES = (".calls", "tfa.sweeps", "sim.events", "minplus.max_segments", "minplus.max_den_bits")


def import_redcalc():
    """Import redcalc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import redcalc

    if not os.path.abspath(redcalc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"redcalc imported from {redcalc.__file__}, not from {SRC}")


def _probe_work():
    """Fixed exact-rational work in the style of the analyzer, without redcalc."""
    values = [Fraction(i * 7919 % 1009, 1 + i % 97) for i in range(PROBE_SIZE)]
    table = {}
    for a, b in zip(values, values[1:]):
        table[a] = min(table.get(a, b), a * b + b / (a + 1))
    return sorted(table.values())


class SpeedProbe:
    """Times `_probe_work` once per PROBE_EVERY_S seconds of the run.

    `tick()` is called between operations and between the stages of long
    ones; it runs one probe for every PROBE_EVERY_S seconds since the last
    call (at most PROBE_BURST), so the samples cover long operations as
    densely as short ones.  `spent` lets the runner take probe time out of
    the operation it interrupted.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._last = None

    def tick(self):
        if self._last is None:
            due = 1
        else:
            due = min(PROBE_BURST, int((time.perf_counter() - self._last) / PROBE_EVERY_S))
        for _ in range(due):
            t0 = time.perf_counter()
            _probe_work()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)
            self.spent += self._last - t0

    def factor(self):
        """Multiplier from raw seconds to seconds at nominal machine speed."""
        return (PROBE_NOMINAL_S / statistics.median(self.samples)) ** PROBE_ELASTICITY


def measure_setup():
    """Median fresh-interpreter time of `import redcalc.cli`, in raw seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    values = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        values.append(float(proc.stdout))
    return statistics.median(values[1:])  # the first run may write bytecode caches


def environment(args, wl):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "redcalc")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            src.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                src.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "inputs_sha256": wl.inputs_sha256,
    }


class Batch:
    def __init__(self):
        self.wall = 0.0  # raw seconds inside the operations
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.counters = {}
        self.layers = None


def run_ops(ops, probe, tracer=None):
    """Run ops one after another, then check each output outside the timing."""
    from workloads import CheckFailed

    batch = Batch()
    outputs = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in ops:
            probe.tick()
            spent = probe.spent
            t0 = time.perf_counter()
            try:
                outputs.append((op.run(), None))
            except Exception:  # an operation that raises counts as failed
                outputs.append((None, traceback.format_exc()))
            batch.times.append(time.perf_counter() - t0 - (probe.spent - spent))
    batch.wall = sum(batch.times)
    for op, (output, error) in zip(ops, outputs):
        batch.attempted += 1
        if error is None:
            try:
                for key, value in op.check(output).items():
                    batch.counters[key] = batch.counters.get(key, 0) + value
                continue
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:
                error = traceback.format_exc()
        batch.failed += 1
        print(f"FAIL {op.label}: {error}", file=sys.stderr)
    return batch


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    if len(samples) < 11:
        return None, None
    ordered = sorted(samples)
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def measure(wl, seconds, trace, probe):
    """Run the batches; return (outcome, raw figures, per-layer figures or None)."""
    from tracing import Capture, Tracer, micro_benchmark
    from workloads import CyclicGrid

    warm = run_ops(wl.ops[:1], probe)
    batches, traced = [], []
    start = time.perf_counter()
    while len(batches) < MIN_BATCHES or time.perf_counter() - start < seconds:
        gc.collect()  # every batch starts from the same collector state
        batches.append(run_ops(wl.ops, probe))
        if trace:
            gc.collect()
            tracer = Tracer()
            batch = run_ops(wl.ops, probe, tracer)
            batch.layers = tracer.summary()
            batch.layers["sim.events"] = batch.counters.get("events", 0)
            traced.append(batch)

    outcome = {
        "attempted": warm.attempted + sum(b.attempted for b in batches + traced),
        "failed": warm.failed + sum(b.failed for b in batches + traced),
        "problems": [],
    }
    counters = [b.counters for b in batches + traced]
    if any(c != counters[0] for c in counters):
        outcome["problems"].append("outputs differ between batches")
    samples = [t for b in batches for t in b.times]
    raw = {
        "wall_s": statistics.median(b.wall for b in batches),
        "call_p50_ms": 1000 * statistics.median(samples),
        "call_samples": len(samples),
        "batches": len(batches),
        "counters": counters[0],
    }
    value, raw["call_tail_pct"] = tail(samples)
    raw["call_tail_ms"] = None if value is None else 1000 * value
    if not trace:
        return outcome, raw, None

    layers = {}
    for key in traced[0].layers:
        values = [b.layers[key] for b in traced]
        if key.endswith(EXACT_SUFFIXES):
            if any(v != values[0] for v in values):
                outcome["problems"].append(f"traced count {key} differs between batches")
            layers[key] = values[0]
        else:
            layers[key] = statistics.median(values)
    layers["trace.overhead_ratio"] = statistics.median(b.wall for b in traced) / raw["wall_s"]

    # the micro-benchmark replays calls captured from this seed's cyclic grid
    grid = wl if isinstance(wl, CyclicGrid) else CyclicGrid(wl.seed, wl.size, wl.workdir, {})
    with Capture(wl.seed) as capture:
        grid.ops[0].run()
    probe.tick()
    layers.update(micro_benchmark(capture.samples))
    return outcome, raw, layers


def calibrated_layers(layers, factor):
    """Per-layer figures with every time scaled to nominal machine speed."""
    return {
        key: value * factor if key.endswith(("_s", "ns_per_call", "s_per_sweep")) else value
        for key, value in layers.items()
    }


def summary_lines(raw, setup_s, outcome, factor, probe):
    def timed(value):
        return f"{value * factor:.6g} (raw {value:.6g})"

    counters = raw["counters"]
    n = raw["call_samples"]
    lines = [
        f"speed            probe median {statistics.median(probe.samples) * 1000:.4f} ms "
        f"over {len(probe.samples)} probes, nominal {PROBE_NOMINAL_S * 1000:g} ms, "
        f"times below x{factor:.4f}",
        f"setup_s          {setup_s:.6g} s, median of {SETUP_RUNS} fresh imports of redcalc.cli",
        f"wall_s           {timed(raw['wall_s'])} s, median of {raw['batches']} batches",
        f"call_p50_ms      {timed(raw['call_p50_ms'])} ms, n={n}",
    ]
    if raw["call_tail_ms"] is None:
        lines.append(f"call_tail_ms     n/a: n={n}, fewer than 11 samples")
    else:
        lines.append(
            f"call_tail_ms     {timed(raw['call_tail_ms'])} ms, "
            f"p{raw['call_tail_pct']:.1f} of n={n}"
        )
    lines.append(f"peak_rss_mb      {raw['peak_rss_mb']:.2f} MB")
    attempted, failed = outcome["attempted"], outcome["failed"]
    lines.append(f"fail_ratio       {failed / attempted:.6f} ratio, {failed} of {attempted} operations")
    if "bound_sum" in counters:
        lines.append(f"bound_sum        {float(counters['bound_sum']):.6f} time units per batch")
    else:
        lines.append("bound_sum        n/a: no analyzer in this workload")
    if "events" in counters:
        rate = counters["events"] / raw["wall_s"]
        lines.append(
            f"sim_events_per_s {rate / factor:.6g} (raw {rate:.6g}) 1/s, "
            f"{counters['events']} events per batch"
        )
    else:
        lines.append("sim_events_per_s n/a: no simulator in this workload")
    return lines


def record():
    from workloads import RECORDING, SIZES, WORKLOADS

    expected = {}
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as workdir:
        for size in SIZES:
            for name, cls in WORKLOADS.items():
                t0 = time.perf_counter()
                wl = cls(0, size, workdir, {size: {name: RECORDING}})
                recorded = wl.record()
                if recorded is not None:
                    expected.setdefault(size, {})[name] = recorded
                print(f"recorded {size} {name} in {time.perf_counter() - t0:.1f} s", flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def metric_units():
    """Units of the end-to-end and the per-layer metrics named in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["ff-grid", "cyclic-grid", "sim-ir", "corpus-cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "small"], default="full")
    parser.add_argument("--record", action="store_true", help="rewrite bench/expected.json")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    try:
        import_redcalc()
    except ImportError as exc:
        print(f"error: cannot import redcalc from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0

    from workloads import WORKLOADS

    end_to_end_units, per_layer_units = metric_units()
    setup_s = measure_setup()
    probe = SpeedProbe()
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    workdir = tempfile.mkdtemp(dir=HERE, prefix="_work-")
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir, expected)
        wl.between_stages = probe.tick
        outcome, raw, layers = measure(wl, args.seconds, bool(args.trace), probe)
        env = environment(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factor = probe.factor()

    print("env " + json.dumps(env, sort_keys=True))
    for line in summary_lines(raw, setup_s, outcome, factor, probe):
        print(line)
    if layers is not None:
        values, units = calibrated_layers(layers, factor), per_layer_units
        for name, value in sorted(values.items()):
            print(f"{name:44s} {value}")
    else:
        values, units = {
            "setup_s": setup_s,
            "wall_s": raw["wall_s"] * factor,
            "call_p50_ms": raw["call_p50_ms"] * factor,
            "peak_rss_mb": raw["peak_rss_mb"],
        }, end_to_end_units
    for problem in outcome["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = outcome["failed"] == 0 and not outcome["problems"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
