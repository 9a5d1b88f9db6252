"""Metamorphic monotonicity laws of the analyzer.

More traffic or less service never lowers an upper delay bound: raising
one flow's burst, slowing one served port's rate, lengthening one served
port's latency, or scaling every arrival curve by 11/10 moves every `hi`
(each flow's end-to-end bound and each port delay) up or leaves it; removing
one flow moves every remaining `hi` down or leaves it.  An unbounded end
ranks above every rational.  These laws check end to end the monotonicity of
the sweep, on which the exact solve of a cyclic component rests: its affine
pieces have `A >= 0`, so the leading principal minors of `I - A` decide.

The draws alternate between `random_cyclic_network` and
`random_pef_network`, each rotating through the four model/lossless
settings; targets are picked from sorted lists, so a failing draw
reproduces under any hash seed.
"""

import copy
import random
from fractions import Fraction

from redcalc.minplus import is_unbounded
from redcalc.tfa import MODEL_INTUITIVE, MODEL_TIGHT, analyze
from redcalc.topology import network_from_json

from netfixtures import random_cyclic_network, random_pef_network

SETTINGS = [(model, lossless) for model in (MODEL_TIGHT, MODEL_INTUITIVE)
            for lossless in (False, True)]
DRAWS = 200


def _raise_burst(doc, rng):
    """One flow's burst raised by 1 on every segment of its arrival curve."""
    fid = rng.choice(sorted(f["id"] for f in doc["flows"]))
    (flow,) = [f for f in doc["flows"] if f["id"] == fid]
    for seg in flow["arrival"]["segments"]:
        seg["burst"] = str(Fraction(seg["burst"]) + 1)
    return f"burst of {fid} + 1"


def _served(doc, rng):
    name = rng.choice(sorted(v["name"] for v in doc["vertices"] if "service" in v))
    (vertex,) = [v for v in doc["vertices"] if v["name"] == name]
    return name, vertex["service"]


def _slow_rate(doc, rng):
    """One served port's rate scaled by 9/10."""
    name, service = _served(doc, rng)
    service["rate"] = str(Fraction(service["rate"]) * Fraction(9, 10))
    return f"rate of {name} * 9/10"


def _add_latency(doc, rng):
    """One served port's latency raised by 1/4."""
    name, service = _served(doc, rng)
    service["latency"] = str(Fraction(service["latency"]) + Fraction(1, 4))
    return f"latency of {name} + 1/4"


def _scale_arrivals(doc, rng):
    """Every arrival curve scaled by 11/10: the rate and burst of each
    segment."""
    for flow in doc["flows"]:
        for seg in flow["arrival"]["segments"]:
            for key in ("rate", "burst"):
                seg[key] = str(Fraction(seg[key]) * Fraction(11, 10))
    return "every arrival * 11/10"


def _remove_flow(doc, rng):
    """One flow removed from the flows and from each placement's flows and
    shaping; a placement left without a flow is removed too."""
    fid = rng.choice(sorted(f["id"] for f in doc["flows"]))
    doc["flows"] = [f for f in doc["flows"] if f["id"] != fid]
    for p in doc["placements"]:
        p["flows"] = [g for g in p["flows"] if g != fid]
        p.get("shaping", {}).pop(fid, None)
    doc["placements"] = [p for p in doc["placements"] if p["flows"]]
    return f"removal of {fid}"


# each law: its perturbation, and whether it adds load (every upper end
# moves up or stays) or removes some (every remaining one moves down or stays)
LAWS = {
    "burst": (_raise_burst, True),
    "rate": (_slow_rate, True),
    "latency": (_add_latency, True),
    "arrivals": (_scale_arrivals, True),
    "removal": (_remove_flow, False),
}


def _rank(x):
    return (1, 0) if is_unbounded(x) else (0, x)


def _upper_ends(report) -> dict:
    ends = {("flow", r.flow, r.destination): r.interval.hi for r in report.results}
    ends.update((("port", v), d.hi) for v, d in report.vertex_delays.items())
    return ends


def _draws():
    """(draw, generator, document, setting, rng for the targets) of each
    draw; generator and setting rotate with the draw index."""
    rng = random.Random(0x1A75)
    for i in range(DRAWS):
        make = (random_cyclic_network, random_pef_network)[i % 2]
        yield i, make.__name__, make(rng), SETTINGS[(i // 2) % len(SETTINGS)], rng


def test_more_load_or_less_service_never_lowers_an_upper_end():
    moved = dict.fromkeys(LAWS, 0)
    for i, generator, doc, (model, lossless), rng in _draws():
        base = _upper_ends(analyze(network_from_json(doc), model, lossless))
        for law, (perturb, adds) in LAWS.items():
            other = copy.deepcopy(doc)
            what = perturb(other, rng)
            ends = _upper_ends(analyze(network_from_json(other), model, lossless))
            low, high = (base, ends) if adds else (ends, base)
            assert low.keys() == high.keys() if adds else low.keys() < high.keys()
            for key, hi in low.items():
                assert _rank(high[key]) >= _rank(hi), (
                    f"draw {i} of {generator}, model {model}, lossless {lossless}: "
                    f"{what} moves {key} from {base[key]} to {ends[key]}")
            moved[law] += any(_rank(high[key]) > _rank(hi) for key, hi in low.items())
    # each law that adds load raises some upper end in 196 draws: all but
    # the 4 whose analysis is Diverged, where every end is unbounded
    # already; removing a flow lowers some remaining end in 198 draws
    assert all(n >= 180 for n in moved.values()), moved
