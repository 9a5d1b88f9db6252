"""Command-line front end: analyze networks, compare eliminator models,
replay scenario trajectories, and verify simulated delays against bounds.

The analysis commands (`analyze`, `compare`, `bundled`) never load the
trajectory simulator; `simulate` and `verify` load it on first use.

Exit codes: 0 all good, 1 input or usage error, 2 at least one deadline
violated, an unbounded verdict, or a non-converged analysis.  Input paths
prefixed with ``bundled:`` resolve into the corpus shipped inside the
package.
"""

import argparse
import functools
import json
import sys

from .minplus import is_unbounded, to_jsonable
from .tfa import CONVERGED, MODEL_INTUITIVE, MODEL_TIGHT, analyze, compare_models
from .topology import SpecError, bundled_dir, load_network

BUNDLED_PREFIX = "bundled:"


# The simulator is imported on first use, so the analysis commands start
# without it.  These read the engine module, not the `redcalc.sim` package,
# whose bindings a caller may have replaced.
def load_scenario(source):
    from .sim.engine import load_scenario

    return load_scenario(source)


def run_scenario(scenario):
    from .sim.engine import run_scenario

    return run_scenario(scenario)


def bundled_names() -> list:
    return sorted(p.name for p in bundled_dir().iterdir() if p.name.endswith(".json"))


def resolve_input(path: str):
    if path.startswith(BUNDLED_PREFIX):
        return bundled_dir().joinpath(path[len(BUNDLED_PREFIX):])
    return path


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc, out_path):
    _emit(_written(_json_text, doc), out_path)


def _written(build, *args) -> str:
    """`build(*args)`, the text of an output, built with Python's limit on
    the digits of an int converted to a string lifted, then restored: an
    exact bound may have more than 4,300 digits.  Input parsing keeps the
    limit, which guards it against huge literals (CVE-2020-10735)."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # 3.10.7 and later
    if set_limit is None:
        return build(*args)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return build(*args)
    finally:
        set_limit(limit)


def _json_text(doc) -> str:
    """`json.dumps(to_jsonable(doc), indent=2)`, written in one walk: with
    an indent, `json.dumps` on Python 3.11 and earlier falls back to its
    pure-Python encoder."""
    parts = []
    _write(to_jsonable(doc), parts, "\n")
    return "".join(parts)


_quote = json.encoder.encode_basestring_ascii  # the quoting of json.dumps


def _write(value, parts: list, newline: str):
    """Append the text of `value` to `parts` as `json.dumps(value, indent=2)`
    writes it, with `newline` before each of its lines but the first.  Keys
    are strings, as in every report; a leaf that is not a string, None, a
    bool or an int goes through `json.dumps`."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts += (sep, _quote(key), ": ")
            _write(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if value else "false")
    elif kind is int:
        parts.append(int.__repr__(value))
    else:
        parts.append(json.dumps(value))


def _report_exit(report) -> int:
    if report.status != CONVERGED or report.any_violation():
        return 2
    return 0


def cmd_analyze(args) -> int:
    network = load_network(resolve_input(args.input))
    report = analyze(network, model=args.model, lossless=args.lossless, iter_cap=args.iter_cap)
    if args.format == "csv":
        _emit(_written(report.to_csv), args.out)
    else:
        _emit_json(report, args.out)
    return _report_exit(report)


def cmd_compare(args) -> int:
    network = load_network(resolve_input(args.input))
    out = compare_models(network, lossless=args.lossless, iter_cap=args.iter_cap)
    doc = {
        "tight": out["tight"],
        "intuitive": out["intuitive"],
        "pairs": [
            {"flow": fid, "destination": dest, "tight": t, "intuitive": i}
            for (fid, dest), (t, i) in sorted(out["pairs"].items())
        ],
    }
    _emit_json(doc, args.out)
    return max(_report_exit(out["tight"]), _report_exit(out["intuitive"]))


def cmd_simulate(args) -> int:
    scenario = load_scenario(resolve_input(args.scenario))
    trace = run_scenario(scenario)
    _emit(_written(trace.to_csv), args.trace_out)
    return 0


def cmd_verify(args) -> int:
    scenario = load_scenario(resolve_input(args.scenario))
    network = load_network(resolve_input(args.network))
    report = analyze(network, model=args.model, lossless=args.lossless, iter_cap=args.iter_cap)
    trace = run_scenario(scenario)
    delays = trace.delays()

    per_flow = {}
    for (fid, _unit), delay in delays.items():
        lo, hi = per_flow.get(fid, (delay, delay))
        per_flow[fid] = (min(lo, delay), max(hi, delay))

    rows = []
    ok_all = True
    for fid in sorted(per_flow):
        # a trace measures each flow at one destination, so the flow's
        # bound must be that destination's alone
        results = [r for r in report.results if r.flow == fid]
        if not results:
            raise SpecError("flows", f"scenario flow {fid!r} is not in the network")
        if len(results) > 1:
            raise SpecError(
                "flows", f"scenario flow {fid!r} reaches {len(results)} destinations of the network"
            )
        interval = results[0].interval
        observed_lo, observed_hi = per_flow[fid]
        ok = observed_lo >= interval.lo and (
            is_unbounded(interval.hi) or observed_hi <= interval.hi
        )
        notes = []
        if is_unbounded(interval.hi):
            notes.append("no finite upper bound; divergence scenario confirmed by trace")
        elif observed_hi == interval.hi:
            notes.append("bound attained")
        ok_all &= ok
        rows.append(
            {
                "flow": fid,
                "observed": {"min": observed_lo, "max": observed_hi},
                "bound": interval,
                "ok": ok,
                "notes": notes,
            }
        )
    doc = {
        "scenario": scenario.name,
        "model": report.model,
        "lossless": report.lossless,
        "lost_units": [f"{fid}/{unit}" for fid, unit in trace.lost_units()],
        "flows": rows,
        "sound": ok_all,
    }
    _emit_json(doc, args.out)
    return 0 if ok_all else 2


def _add_model_flag(p):
    p.add_argument(
        "--model",
        choices=[MODEL_TIGHT, MODEL_INTUITIVE],
        default=MODEL_TIGHT,
        help="eliminator output-curve model (default: tight)",
    )


def _add_analysis_flags(p):
    p.add_argument(
        "--lossless",
        action="store_true",
        help="assume no data unit is ever lost on the analyzed paths",
    )
    p.add_argument("--iter-cap", type=int, default=None, help="fixed-point passes per cyclic SCC")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as input errors do;
    argparse's own 2 would read as a violated or unconverged analysis."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="redcalc",
        description="Worst-case delay analysis and trajectory simulation for "
        "networks with packet replication, elimination, re-sequencing, and "
        "shaping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute per-destination delay intervals")
    p.add_argument("--in", dest="input", required=True, help="network file (JSON)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_model_flag(p)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="run both eliminator models and pair the bounds")
    p.add_argument("--in", dest="input", required=True, help="network file (JSON)")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="replay a scenario and emit the trace as CSV")
    p.add_argument("--scenario", required=True, help="scenario file (JSON)")
    p.add_argument("--trace-out", default=None, help="trace CSV file (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check simulated delays against analyzed bounds")
    p.add_argument("--scenario", required=True, help="scenario file (JSON)")
    p.add_argument("--network", required=True, help="network file (JSON)")
    _add_model_flag(p)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bundled", help="list the scenario/network corpus in the package")
    p.set_defaults(func=lambda args: (_emit("\n".join(bundled_names()), None), 0)[1])

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # SpecError, ScenarioError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
