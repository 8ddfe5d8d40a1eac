"""Fault-site liveness analysis and campaign pruning.

The pipeline (docs/analysis.md):

1. :class:`DefUseTracer` records per-commit register/memory def-use
   events during a replay of the golden run (hooked into the CPU models
   via ``FaultInjector.install_tracer``; the no-trace path stays
   zero-overhead behind the ``trace_hot`` flag).
2. :class:`LivenessAnalysis` classifies candidate ``(location, time,
   bit)`` SEU sites as provably masked or live.
3. ``CampaignRunner.run_campaign(..., prune=True)`` predicts the
   outcome of each provably masked site and simulates the rest.
"""

from .propagation import PropagationGraph, build_propagation_graph
from .liveness import (
    LIVE,
    MASK_REASONS,
    MASKED_BIT_OUT_OF_RANGE,
    MASKED_DEAD_DESTINATION,
    MASKED_DEAD_REGISTER,
    MASKED_DEAD_RESULT,
    MASKED_DISCARDED_WRITE,
    MASKED_EQUAL_VALUE_SOURCE,
    MASKED_NEVER_TRIGGERS,
    MASKED_NO_OPERAND_FIELDS,
    MASKED_OVERWRITTEN_REGISTER,
    MASKED_OVERWRITTEN_RESULT,
    MASKED_OVERWRITTEN_STORE,
    MASKED_UNUSED_ENCODING_BITS,
    MASKED_ZERO_REGISTER,
    LivenessAnalysis,
    SiteVerdict,
)
from .trace import DefUseTracer, TraceEvent
from .coverage import (
    ConvergenceTracker,
    CoverageCell,
    FaultSpaceMap,
    coverage_from_share,
    coverage_summary,
    render_coverage_svg,
)
from .diff import (
    CampaignDiff,
    CampaignSummary,
    newcombe_interval,
    proportions_differ,
    render_diff_svg,
)

__all__ = [
    "CampaignDiff", "CampaignSummary", "newcombe_interval",
    "proportions_differ", "render_diff_svg",
    "ConvergenceTracker", "CoverageCell", "FaultSpaceMap",
    "coverage_from_share", "coverage_summary",
    "render_coverage_svg",
    "DefUseTracer", "LIVE", "LivenessAnalysis", "MASK_REASONS",
    "MASKED_BIT_OUT_OF_RANGE", "MASKED_DEAD_DESTINATION",
    "MASKED_DEAD_REGISTER", "MASKED_DEAD_RESULT",
    "MASKED_DISCARDED_WRITE", "MASKED_EQUAL_VALUE_SOURCE",
    "MASKED_NEVER_TRIGGERS",
    "MASKED_NO_OPERAND_FIELDS", "MASKED_OVERWRITTEN_REGISTER",
    "MASKED_OVERWRITTEN_RESULT", "MASKED_OVERWRITTEN_STORE",
    "MASKED_UNUSED_ENCODING_BITS", "MASKED_ZERO_REGISTER",
    "PropagationGraph", "SiteVerdict", "TraceEvent",
    "build_propagation_graph",
]
