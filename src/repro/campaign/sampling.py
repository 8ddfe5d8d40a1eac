"""Statistical fault-sampling size (Leveugle et al., DATE 2009).

The paper sizes every campaign with this method: "The number of
executions of each application for every experiment varied from 2501 to
2504 ... setting 99% as a target confidence level and 1% as the error
margin."

The estimator treats fault injection as sampling without replacement
from the finite population of N possible faults (every location x time
combination) and asks how many samples n give a +-e confidence interval
at confidence t on the estimated outcome proportion p:

    n = N / (1 + e^2 * (N - 1) / (t^2 * p * (1 - p)))

p = 0.5 maximises the required n (the conservative choice when the true
proportion is unknown).
"""

from __future__ import annotations

import math

# Two-sided z-scores for common confidence levels.
Z_SCORES = {
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
    0.999: 3.2905267314919255,
}


def z_score(confidence: float) -> float:
    """Two-sided normal quantile for *confidence* (interpolates between
    tabulated levels; exact at 0.90/0.95/0.99/0.999)."""
    if confidence in Z_SCORES:
        return Z_SCORES[confidence]
    if not 0.5 < confidence < 1.0:
        raise ValueError("confidence must be in (0.5, 1.0)")
    levels = sorted(Z_SCORES)
    if confidence < levels[0]:
        return Z_SCORES[levels[0]] * confidence / levels[0]
    for low, high in zip(levels, levels[1:]):
        if low < confidence < high:
            frac = (confidence - low) / (high - low)
            return Z_SCORES[low] + frac * (Z_SCORES[high] - Z_SCORES[low])
    return Z_SCORES[levels[-1]]


def sample_size(population: int, confidence: float = 0.99,
                error_margin: float = 0.01, p: float = 0.5) -> int:
    """Number of fault-injection experiments needed (Leveugle DATE'09).

    *population* is the total fault space N; pass a large value (or
    ``math.inf``) for the usual "N effectively infinite" regime.
    """
    if population <= 0:
        raise ValueError("population must be positive")
    if not 0 < error_margin < 1:
        raise ValueError("error margin must be in (0, 1)")
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    t = z_score(confidence)
    if math.isinf(population):
        return math.ceil(t * t * p * (1 - p) / (error_margin ** 2))
    n = population / (
        1 + error_margin ** 2 * (population - 1) / (t * t * p * (1 - p)))
    return math.ceil(min(n, population))


def proportion_confidence_interval(successes: int, trials: int,
                                   confidence: float = 0.95
                                   ) -> tuple[float, float]:
    """Wilson score interval for an outcome-class proportion."""
    if trials <= 0:
        return 0.0, 1.0
    z = z_score(confidence)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = (z * math.sqrt(phat * (1 - phat) / trials
                          + z * z / (4 * trials * trials))) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def mean_confidence_interval(values, confidence: float = 0.95
                             ) -> tuple[float, float, float]:
    """(mean, low, high) normal-approximation CI for a sample mean —
    used by the Fig. 7 overhead measurements."""
    values = list(values)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(values) / n
    if n == 1:
        return mean, mean, mean
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = z_score(confidence) * math.sqrt(variance / n)
    return mean, mean - half, mean + half
