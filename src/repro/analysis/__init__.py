"""Fault-site liveness analysis and campaign pruning.

The pipeline (docs/analysis.md):

1. :class:`DefUseTracer` records per-commit register/memory def-use
   events during a replay of the golden run (hooked into the CPU models
   via ``FaultInjector.install_tracer``; the no-trace path stays
   zero-overhead behind the ``trace_hot`` flag).
2. :class:`LivenessAnalysis` classifies candidate ``(location, time,
   bit)`` SEU sites as provably masked or live.
3. :func:`build_classes` collapses live sites that share their
   first-use instruction into weighted equivalence classes.
4. ``campaign.generator.PrunedGenerator`` plans a campaign that runs
   only class representatives and predicts masked outcomes for free;
   ``campaign.results.expand_pruned`` re-expands to the unpruned
   estimator.
"""

from .equivalence import SiteClass, build_classes
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

# .coverage lazily imports campaign.generator (which itself imports
# .equivalence above at module scope) — keep it last so the partially
# initialised package never bites.
from .coverage import (
    ConvergenceTracker,
    CoverageCell,
    FaultSpaceMap,
    coverage_from_share,
    coverage_gauges,
    coverage_summary,
    render_coverage_svg,
)

# .diff builds on .coverage (heatmap rollups) and campaign.sampling
# (Wilson/Kish machinery) — same ordering caveat as above.
from .diff import (
    CampaignDiff,
    CampaignSummary,
    compare_gauges,
    newcombe_interval,
    proportions_differ,
    render_diff_svg,
)

__all__ = [
    "CampaignDiff", "CampaignSummary", "compare_gauges",
    "newcombe_interval", "proportions_differ",
    "render_diff_svg",
    "ConvergenceTracker", "CoverageCell", "FaultSpaceMap",
    "coverage_from_share", "coverage_gauges", "coverage_summary",
    "render_coverage_svg",
    "DefUseTracer", "LIVE", "LivenessAnalysis", "MASK_REASONS",
    "MASKED_BIT_OUT_OF_RANGE", "MASKED_DEAD_DESTINATION",
    "MASKED_DEAD_REGISTER", "MASKED_DEAD_RESULT",
    "MASKED_DISCARDED_WRITE", "MASKED_EQUAL_VALUE_SOURCE",
    "MASKED_NEVER_TRIGGERS",
    "MASKED_NO_OPERAND_FIELDS", "MASKED_OVERWRITTEN_REGISTER",
    "MASKED_OVERWRITTEN_RESULT", "MASKED_OVERWRITTEN_STORE",
    "MASKED_UNUSED_ENCODING_BITS", "MASKED_ZERO_REGISTER",
    "PropagationGraph", "SiteClass", "SiteVerdict", "TraceEvent",
    "build_classes", "build_propagation_graph",
]
