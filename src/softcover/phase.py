"""Critical thresholds, region classification, tradeoff curves, and
threshold/rate phase grids built on top of the exponent solvers.

Per rate, ``classify`` tags E_FA flat up to ``tau_flat``, the level of the
reported floor minimizer: on a two-output channel the type of largest
level among the minimizers, so the top of the flat region; on three or
more outputs the one the scan picked (on full-support channels E_FA can
stay flat above it: ROADMAP item 6). It tags E_FA infinite above
``lambda_max``, E_MD infinite at or below ``lambda_min``, the level minimum
(at R > 0 the gate keeps E_MD infinite above it on full-support channels:
ROADMAP item 11), and E_MD zero from ``tau_star = max(0, I(X;Y) - R)``.
Inside the active missed-detection region the minimizer switches from the
bulk branch to the sparse branch at ``tau_kink``, and the unconstrained
false-alarm minimizer switches branch at a critical rate (the cusp of
``tau_flat`` as a function of the rate). Both switch points are located by
bisection on the reported branch tag, which is a crisp observable, rather
than on noisy slope estimates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exponents import Problem, SolverConfig
from .measures import (
    Channel,
    Distribution,
    JointType,
    llr_level,
    mutual_information,
)

_ZERO_TOL = 1e-9
_TAU_MARGIN = 0.02  # nats the tradeoff sweep runs past each end of the window


class RegionTag(enum.Enum):
    FA_FLAT = "FA_flat"
    FA_ACTIVE = "FA_active"
    FA_INFINITE = "FA_infinite"
    MD_ZERO = "MD_zero"
    MD_ACTIVE = "MD_active"
    MD_INFINITE = "MD_infinite"


@dataclass(frozen=True)
class PhaseReport:
    """Critical thresholds of both exponents at one rate, all in nats."""

    rate: float
    i_xy: float
    tau_flat: float
    lambda_min: float
    lambda_max: float
    tau_star: float
    fa_flat_value: float
    tau_kink: Optional[float] = None

    def __post_init__(self):
        if self.lambda_min > _ZERO_TOL:
            raise ValueError(
                f"lambda_min = {self.lambda_min} > 0; no type reaches a "
                f"non-positive level, phase analysis does not apply")
        if abs(self.tau_star - max(0.0, self.i_xy - self.rate)) > 1e-10:
            raise ValueError("tau_star must equal max(0, i_xy - rate)")
        if self.lambda_min > self.lambda_max + _ZERO_TOL:
            raise ValueError("lambda_min exceeds lambda_max")
        if self.tau_kink is not None and not (
                self.lambda_min - 1e-6 < self.tau_kink < 1e-6):
            raise ValueError(
                f"tau_kink = {self.tau_kink} outside (lambda_min, 0)")


@dataclass(frozen=True)
class FlatPoint:
    """Unconstrained false-alarm minimum: its cost, the reported minimizer
    (see ``tau_flat``), and its level, taken as the flat-region
    boundary."""

    tau_flat: float
    fa_flat_value: float
    minimizer: JointType


@dataclass(frozen=True)
class TradeoffCurve:
    """Threshold-parametrized exponent pairs plus their upper envelope."""

    points: list[tuple[float, float, float]]
    envelope: list[tuple[float, float]]


@dataclass(frozen=True)
class PhaseGrid:
    """Exponents and region tags tabulated over a threshold/rate lattice."""

    taus: np.ndarray
    rates: np.ndarray
    e_fa: np.ndarray
    e_md: np.ndarray
    fa_regions: list[list[RegionTag]]
    md_regions: list[list[RegionTag]]
    boundaries: dict[str, np.ndarray] = field(default_factory=dict)


def lambda_extrema(w: Channel, p_in: Distribution, rate: float,
                   cfg: Optional[SolverConfig] = None) -> tuple[float, float]:
    """Extremes of the likelihood-ratio level over channel-compatible types:
    the polished grid minimum and the closed-form maximum
    ``[sum_x P(x) max_y i(x, y) - R]_+`` (``Problem.level_max``)."""
    problem = Problem(w, p_in, rate, cfg)
    return problem.level_min().value, problem.level_max()


def tau_flat(w: Channel, p_in: Distribution, rate: float,
             cfg: Optional[SolverConfig] = None) -> FlatPoint:
    """Unconstrained false-alarm minimizer, its cost, and its level.

    Several types can tie for the minimum (common away from singular
    channels, where a whole segment of types has zero cost). On a channel
    with two outputs the reported one has the largest level among them, the
    interference ceiling of its output marginal, so ``tau_flat`` is the top
    of the flat region. On three or more outputs the first one in scan
    order is reported, and its level need not be the top.
    """
    problem = Problem(w, p_in, rate, cfg)
    res = problem.fa(-math.inf)
    lam = llr_level(res.minimizer, w, problem.p_out, rate)
    return FlatPoint(lam, res.value, res.minimizer)


def tau_kink(w: Channel, p_in: Distribution, rate: float,
             cfg: Optional[SolverConfig] = None) -> Optional[float]:
    """Threshold where the missed-detection minimizer changes branch, found
    by bisection on the branch tag over the negative active region; ``None``
    when the tag never changes there."""
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    problem = Problem(w, p_in, rate, cfg)
    lam_min = problem.level_min().value

    def branch_at(tau: float) -> Optional[str]:
        return problem.md(tau).branch

    lo = lam_min + max(1e-4, abs(lam_min) * 1e-3)
    hi = -1e-6
    if lo >= hi:
        return None
    tag_lo = branch_at(lo)
    for _ in range(6):
        # the feasibility edge can swallow the first probe at grid resolution
        if tag_lo is not None:
            break
        lo += max(1e-4, (hi - lo) * 0.05)
        if lo >= hi:
            return None
        tag_lo = branch_at(lo)
    tag_hi = branch_at(hi)
    if tag_lo is None or tag_hi is None or tag_lo == tag_hi:
        return None
    return _bisect(branch_at, lo, hi, tag_lo)


def fa_cusp_rate(w: Channel, p_in: Distribution, rate_grid: Sequence[float],
                 cfg: Optional[SolverConfig] = None) -> Optional[float]:
    """Rate at which the unconstrained false-alarm minimizer changes branch
    (the cusp of ``tau_flat`` as a function of rate); ``None`` if the branch
    tag is the same across the whole grid."""
    rates = list(rate_grid)
    if sorted(rates) != rates:
        raise ValueError("rate_grid must be sorted ascending")

    def sparse_at(rate: float) -> bool:
        # above the cusp the minimizer sits exactly on the branch boundary
        # (mutual information equal to the rate), so attribute "sparse" only
        # to a clearly interior surplus
        fp = tau_flat(w, p_in, rate, cfg)
        return mutual_information(fp.minimizer) > rate + 1e-4

    tags = [sparse_at(r) for r in rates]
    flip = next((i for i in range(len(tags) - 1) if tags[i] != tags[i + 1]),
                None)
    if flip is None:
        return None
    return _bisect(sparse_at, rates[flip], rates[flip + 1], tags[flip])


def _bisect(probe, a: float, b: float, tag_a) -> float:
    """Midpoint of ``[a, b]`` after halving it down to 1e-5 around the point
    where ``probe`` stops returning ``tag_a``."""
    while b - a > 1e-5:
        mid = 0.5 * (a + b)
        if probe(mid) == tag_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def phase_report(w: Channel, p_in: Distribution, rate: float,
                 cfg: Optional[SolverConfig] = None,
                 locate_kink: bool = True) -> PhaseReport:
    """Assemble all critical thresholds for one rate."""
    jt_channel = JointType(p_in, w.rows)
    i_xy = mutual_information(jt_channel)
    lam_min, lam_max = lambda_extrema(w, p_in, rate, cfg)
    fp = tau_flat(w, p_in, rate, cfg)
    kink = tau_kink(w, p_in, rate, cfg) if (locate_kink and rate > 0) else None
    return PhaseReport(
        rate=rate,
        i_xy=i_xy,
        tau_flat=fp.tau_flat,
        lambda_min=lam_min,
        lambda_max=lam_max,
        tau_star=max(0.0, i_xy - rate),
        fa_flat_value=fp.fa_flat_value,
        tau_kink=kink,
    )


def classify(tau: float, report: PhaseReport) -> tuple[RegionTag, RegionTag]:
    """Region tags of both exponents at threshold ``tau``."""
    if tau <= report.tau_flat:
        fa = RegionTag.FA_FLAT
    elif tau <= report.lambda_max:
        fa = RegionTag.FA_ACTIVE
    else:
        fa = RegionTag.FA_INFINITE
    if tau >= report.tau_star:
        md = RegionTag.MD_ZERO
    elif tau > report.lambda_min:
        md = RegionTag.MD_ACTIVE
    else:
        md = RegionTag.MD_INFINITE
    return fa, md


def tradeoff_curve(w: Channel, p_in: Distribution, rate: float,
                   tau_samples: int, cfg: Optional[SolverConfig] = None
                   ) -> TradeoffCurve:
    """Sweep the threshold across the full active window and pair up the two
    exponents; the envelope collapses each run of constant false-alarm value
    to its highest missed-detection point and stops once the missed-detection
    exponent hits zero."""
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if tau_samples < 2:
        raise ValueError("tau_samples must be >= 2")
    problem = Problem(w, p_in, rate, cfg)
    i_xy = mutual_information(JointType(p_in, w.rows))
    lam_min = problem.level_min().value
    tau_star = max(0.0, i_xy - rate)
    taus = np.linspace(lam_min - _TAU_MARGIN, tau_star + _TAU_MARGIN,
                       tau_samples)
    points = []
    for tau in taus:
        tau = float(tau)
        points.append((tau, problem.fa(tau).value, problem.md(tau).value))
    return TradeoffCurve(points, _envelope(points))


def _envelope(points: list[tuple[float, float, float]]
              ) -> list[tuple[float, float]]:
    runs: list[tuple[float, float]] = []
    for _, e_fa, e_md in points:
        if math.isinf(e_fa):
            continue
        if runs and abs(runs[-1][0] - e_fa) <= _ZERO_TOL:
            # same flat run; keep its highest missed-detection point, which
            # is the first one encountered since e_md is non-increasing
            continue
        runs.append((e_fa, e_md))
    out = []
    for e_fa, e_md in runs:
        out.append((e_fa, e_md))
        if e_md <= _ZERO_TOL:
            break
    return out


def phase_grid(w: Channel, p_in: Distribution,
               tau_range: tuple[float, float, int],
               rate_range: tuple[float, float, int],
               cfg: Optional[SolverConfig] = None) -> PhaseGrid:
    """Tabulate both exponents and their region tags over a lattice, along
    with the per-rate boundary series."""
    t_lo, t_hi, t_n = tau_range
    r_lo, r_hi, r_n = rate_range
    if t_n < 2 or r_n < 2:
        raise ValueError("tau_range and rate_range need at least 2 points")
    taus = np.linspace(t_lo, t_hi, int(t_n))
    rates = np.linspace(r_lo, r_hi, int(r_n))
    e_fa = np.empty((rates.size, taus.size))
    e_md = np.empty_like(e_fa)
    fa_regions: list[list[RegionTag]] = []
    md_regions: list[list[RegionTag]] = []
    boundaries = {name: np.empty(rates.size) for name in
                  ("tau_flat", "lambda_max", "lambda_min", "tau_star")}
    for k, rate in enumerate(rates):
        rate = float(rate)
        problem = Problem(w, p_in, rate, cfg)
        report = phase_report(w, p_in, rate, cfg, locate_kink=False)
        for name, series in boundaries.items():
            series[k] = getattr(report, name)
        for t, tau in enumerate(taus):
            e_fa[k, t] = problem.fa(float(tau)).value
            e_md[k, t] = problem.md(float(tau)).value
        tags = [classify(float(tau), report) for tau in taus]
        fa_regions.append([fa for fa, _ in tags])
        md_regions.append([md for _, md in tags])
    return PhaseGrid(taus, rates, e_fa, e_md, fa_regions, md_regions,
                     boundaries)
