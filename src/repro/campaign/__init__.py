"""Campaign orchestration: sampling, generation, execution, analysis."""

from .classify import OUTCOME_ORDER, Outcome, classify
from .generator import (
    DEFAULT_LOCATIONS,
    LOCATION_WIDTHS,
    SEUGenerator,
    VddScaledGenerator,
    WindowProfile,
)
from .now import (
    NoWConfig,
    SharedDirCampaign,
    now_speedup,
    outcome_counts,
    simulate_makespan,
)
from .results import (
    Distribution,
    by_fetch_field,
    by_location,
    by_time_bins,
    render_location_table,
    render_table,
    render_time_table,
    summary,
)
from .runner import CampaignRunner, ExperimentResult, GoldenRun
from .sampling import (
    mean_confidence_interval,
    proportion_confidence_interval,
    sample_size,
    z_score,
)

__all__ = [
    "CampaignRunner", "DEFAULT_LOCATIONS", "Distribution",
    "ExperimentResult", "GoldenRun", "LOCATION_WIDTHS", "NoWConfig",
    "OUTCOME_ORDER", "Outcome", "SEUGenerator",
    "SharedDirCampaign", "VddScaledGenerator", "WindowProfile",
    "by_fetch_field", "by_location", "by_time_bins", "classify",
    "mean_confidence_interval", "now_speedup", "outcome_counts",
    "proportion_confidence_interval", "render_location_table",
    "render_table", "render_time_table", "sample_size",
    "simulate_makespan", "summary", "z_score",
]
