"""Byte-identity of CLI reports: SHA-256 of stdout and the exit code.

The digests pin every field of the reports, site records and notes
included, on the bundled corpus (all feed-forward) and on ring fixtures
that take the cyclic fixed-point path, converged or cut off.  A change that
is meant to alter a report must update its digest here.
"""

import hashlib
import json

import pytest

from redcalc.cli import bundled_names, main
from netfixtures import fwd_flow, rev_flow, ring_network, ring_sites_network

NETWORKS = [n for n in bundled_names() if n.startswith("net-")]


def _contractive_ring():
    return ring_network([fwd_flow("f1", 1, 1), rev_flow("f2", 1, 1)], 4)


def _growing_ring():
    return ring_network([fwd_flow("f1", 2, 1), rev_flow("f2", 2, 1)], 4)


def _two_segment_ring():
    """The ring with every function kind, each flow's arrival a minimum of
    two token buckets, so merges, port aggregates and jitter spreads carry
    multi-segment curves round the cycle."""
    doc = ring_sites_network()
    arrivals = {
        "f1": [("2", "1"), ("1/2", "3")],
        "f2": [("3/2", "1"), ("1/3", "2")],
        "f3": [("1", "1/2"), ("1/4", "2")],
    }
    for flow in doc["flows"]:
        flow["arrival"] = {
            "segments": [{"rate": r, "burst": b} for r, b in arrivals[flow["id"]]]
        }
    return doc


# case -> (network document, analyze flags)
RINGS = {
    "ring-converged": (_contractive_ring, []),
    "ring-iter-cap-2": (_growing_ring, ["--lossless", "--iter-cap", "2"]),
    "ring-burst-cap-4": (_growing_ring, ["--lossless", "--burst-cap", "4"]),
    "ring-sites-lossy": (ring_sites_network, []),
    "ring-sites-lossless": (ring_sites_network, ["--lossless"]),
    "ring-sites-timeout": (lambda: ring_sites_network("3"), []),
    "ring-sites-iter-cap-3": (ring_sites_network, ["--iter-cap", "3"]),
    "ring-sites-burst-cap-3": (ring_sites_network, ["--burst-cap", "3"]),
    "ring-two-segment": (_two_segment_ring, []),
    "ring-two-segment-lossless": (_two_segment_ring, ["--lossless"]),
}

# (exit code, SHA-256 of stdout), recorded before the single-pass analyzer;
# the two-segment cases before the merge-based `add`
GOLDEN = {
    "compare:net-ir-instability.json:lossy": (
        2,
        "77d3cb707abd667d09eb24710e540a7c119ae75322b2ddfbe5d05aa823eaf9bf",
    ),
    "compare:net-ir-instability.json:lossless": (
        2,
        "905db64add4d012ffbc7135b42f65e55c74421a2f05c1725b8881a7f409057bb",
    ),
    "compare:net-tight-branches.json:lossy": (
        0,
        "b5c8449dc4f49e3c149910d0b196367338fae6a84558804ffecd412841df79c9",
    ),
    "compare:net-tight-branches.json:lossless": (
        0,
        "33578c7206851b92e031a3a51b4bcc11ec45869c87af416b1aaa66831b626d34",
    ),
    "compare:net-toy-pef-pfr.json:lossy": (
        0,
        "73feba3d6bd1d78e253b97ec33a0a4d681b1c1f709a35d58f5f7a9b8d83f80f5",
    ),
    "compare:net-toy-pef-pfr.json:lossless": (
        0,
        "e4f0160f33bef25808cf6ff510b6ae99b1aeded557cd8338a5d3327be4efdffd",
    ),
    "compare:net-toy-pef-pof-pfr.json:lossy": (
        0,
        "1d42fc418feae87ae6ecc3b8d06af33e7a5083a4a68bba74b86c62323257c841",
    ),
    "compare:net-toy-pef-pof-pfr.json:lossless": (
        0,
        "115e8eeac6f78ac32dbe1709c7268dccbca9b14e11aa25be7dd0459b475810b6",
    ),
    "compare:net-toy-pef.json:lossy": (
        0,
        "cc488f6f95f7f6b72a76bb4c47736883d6fabbe701f7b293e556cbfb7e60179a",
    ),
    "compare:net-toy-pef.json:lossless": (
        0,
        "0684344d3ceed30bfa27e982e2028ec19fec28314dc6348e46afcf08d5c0c2fb",
    ),
    "compare:net-volvo-like.json:lossy": (
        0,
        "28c0b06e235e348333c5d8160a447b274c9f155e260b3186ecf156a7ffd50050",
    ),
    "compare:net-volvo-like.json:lossless": (
        0,
        "bfe3d107261f89e6649eeed7e0fb7df35ec5c8559ea15199506b204272fd71f4",
    ),
    "analyze:ring-burst-cap-4": (
        2,
        "b764c2dca9e052d4d340c7d89cf65c4c5f831d99abc2c5bdd32b40bea4281ec6",
    ),
    "analyze:ring-converged": (
        0,
        "bd69aed33e483424959e09dde362773e0982ff06dc596d3adf08a0b450c08a88",
    ),
    "analyze:ring-iter-cap-2": (
        2,
        "e6ae8502f0b724e8c2bbbbb8ee46a5ed0b78502f8439a893709aca1277c3e25c",
    ),
    "analyze:ring-sites-burst-cap-3": (
        2,
        "a6427b029a4a52d0995646fda3d83969a28dad7a5b71c44c812427d907dc5cb0",
    ),
    "analyze:ring-sites-iter-cap-3": (
        2,
        "5372af7907633b9f4cd80be089ab0f7efffaba2d4fdaa4d30fb8f899cda68c82",
    ),
    "analyze:ring-sites-lossless": (
        0,
        "4814070aedf69c423543d0431f82109ee9560bd4395185ba5edae54bb01c9abe",
    ),
    "analyze:ring-sites-lossy": (
        2,
        "43db7584a53041d0ce02e41c7b8c0215730eadb40c5f67e874c265606e00f4d9",
    ),
    "analyze:ring-sites-timeout": (
        0,
        "f60fca09e94a6a8b2c453385c959105c7921b214df4f51689978ce8ebd772bab",
    ),
    "analyze:ring-two-segment": (
        2,
        "06f333e290a10ed94d550570b9fe1f3fb9b601877a5d3cdef9437b75f31a71af",
    ),
    "analyze:ring-two-segment-lossless": (
        0,
        "c08dfef646c4d96afa5604269ee124416bb662b7e215322c5cf5cfd6f1466bc1",
    ),
}


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
@pytest.mark.parametrize("name", NETWORKS)
def test_compare_bundled(name, lossless, capsys):
    flags = ["--lossless"] if lossless else []
    got = _run(["compare", "--in", f"bundled:{name}", *flags], capsys)
    assert got == GOLDEN[f"compare:{name}:{'lossless' if lossless else 'lossy'}"]


@pytest.mark.parametrize("case", sorted(RINGS))
def test_analyze_ring(case, tmp_path, capsys):
    make, flags = RINGS[case]
    target = tmp_path / "ring.json"
    target.write_text(json.dumps(make()))
    got = _run(["analyze", "--in", str(target), *flags], capsys)
    assert got == GOLDEN[f"analyze:{case}"]
