"""Worst-case timing analysis for networks with packet replication and
elimination, plus a packet-level trajectory simulator that exercises the
computed bounds.

Layers, bottom up:

- `minplus`: exact rational min-plus algebra on concave curves.
- `topology`: network/flow data model, graph predicates, path bounds.
- `redundancy`: arrival curves and reordering bounds around eliminators.
- `regulators`: delay penalties and stability verdicts for shapers placed
  downstream of eliminators.
- `tfa`: per-vertex total flow analysis with fixed-point iteration.
- `sim`: event-driven trajectory simulator and scenario generators.
- `cli`: command-line front end (`redcalc analyze|compare|simulate|verify`).
"""

__version__ = "0.1.0"

from .minplus import (  # noqa: F401
    UNBOUNDED,
    ConcaveCurve,
    RateLatency,
    TokenBucket,
)
