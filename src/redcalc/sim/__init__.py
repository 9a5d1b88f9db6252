"""Packet-level trajectory simulator and scenario generators."""

from .engine import (  # noqa: F401
    BRANCH_EXIT,
    DROP,
    GENERATED,
    PEF_EXIT,
    POF_EXIT,
    REG_EXIT,
    PathSpec,
    Pipeline,
    PofSpec,
    RegSpec,
    Scenario,
    ScenarioError,
    SourceUnit,
    Trace,
    TraceEvent,
    load_scenario,
    run_scenario,
    scenario_from_json,
)
from .measures import (  # noqa: F401
    check_compliance,
    is_fifo_per_flow,
    measure_reordering,
)
from .generators import (  # noqa: F401
    gen_adversarial_ir,
    gen_tightness_trajectory,
    toy_scenario,
)
