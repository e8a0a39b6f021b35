"""Reproducible synthetic company panels with a planted default signal.

Financials are drawn from log-normal families with company-level persistence
(AR(1) on the log scale), so ratios stay realistic-positive and consecutive
years correlate. The year-(t+1) out-of-business flag is Bernoulli with
probability sigmoid(intercept + signal_strength * score(year-t true ratios));
the intercept is calibrated by bisection so the realized default rate over
labeled rows hits 1/(1 + imbalance_ratio) within 20% relative.

Everything is a deterministic function of the config, including the
calibration: default draws reuse fixed uniforms, which makes the realized
rate monotone in the intercept and the bisection exact. The RNG is numpy's
default PCG64 seeded from ``config.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataprep import _KINDS, DEFAULT_COUNTRIES, Statements, _as_int
from .models import sigmoid

MASKABLE_FIELDS = tuple(
    f for f in _KINDS if f not in ("company_id", "statement_year", "out_of_business")
)

# Sampling weights of the known countries (heavily France, as in a
# Western-Europe trade-credit book).
COUNTRY_PROBS = (0.55, 0.15, 0.10, 0.08, 0.07, 0.05)

# Additive country effect on the default score: Great Britain protective,
# southern countries slightly riskier.
COUNTRY_EFFECT = {"FR": 0.0, "GB": -0.6, "BE": 0.05, "ES": 0.15, "NL": -0.1, "PT": 0.2}

# Planted direction of the default signal over the nine continuous ratios.
# r3_profitability carries the strongest weight on purpose: the generated
# panels should reward models that pick up long-horizon profitability.
RATIO_WEIGHTS = {
    "r1_solvency": -0.6,
    "r2_solvency": 0.35,
    "r1_liquidity": -0.45,
    "r2_liquidity": -0.25,
    "r1_profitability": -0.15,
    "r2_profitability": -0.35,
    "r3_profitability": -0.9,
    "time_in_business": -0.45,
    "sales_evolution": -0.2,
}

# Mean filing span is 1 + 1/_SPAN_GEOMETRIC_P statements (before truncation
# by the panel end or by default).
_SPAN_GEOMETRIC_P = 0.5

_BISECT_LO, _BISECT_HI = -40.0, 30.0


class GenerationError(ValueError):
    pass


@dataclass
class GeneratorConfig:
    n_companies: int
    year_range: tuple[int, int]
    imbalance_ratio: float = 114.75
    missing_rates: dict[str, float] = field(default_factory=dict)
    signal_strength: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.year_range = tuple(_as_int(v, "generator.year_range") for v in self.year_range)
        self.n_companies = _as_int(self.n_companies, "generator.n_companies")
        self.seed = _as_int(self.seed, "generator.seed")
        if self.n_companies < 1:
            raise ValueError("n_companies must be >= 1")
        y0, y1 = self.year_range
        if y1 - y0 < 1:
            raise ValueError("year_range must span at least two years")
        if self.imbalance_ratio < 1:
            raise ValueError("imbalance_ratio must be >= 1")
        for name, rate in self.missing_rates.items():
            if name not in MASKABLE_FIELDS:
                raise ValueError(f"{name!r} is not a maskable field")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"missing rate for {name!r} must lie in [0, 1]")

    @property
    def target_rate(self) -> float:
        return 1.0 / (1.0 + self.imbalance_ratio)


@dataclass
class SynthOracle:
    """Ground truth the generator knows about its own panel: the true next-
    year default propensity of every labeled (company, year) row."""

    company_ids: list[str]
    years: np.ndarray
    propensity: np.ndarray
    intercept: float
    realized_rate: float
    target_rate: float


class _Panel:
    """Company-year quantities at the filing cells only: company i's grid
    years entry..last, company-major, each a 1-D array over the cells. Every
    draw is still shaped like the (n_companies, n_years) grid and taken in the
    same order; it is read at the cells and dropped, so each value is the one
    the whole grid would hold."""

    def __init__(self, config: GeneratorConfig):
        rng = np.random.default_rng(config.seed)
        n = config.n_companies
        y0, y1 = config.year_range
        T = y1 - y0 + 1
        self.config = config
        self.years = np.arange(y0, y1 + 1)
        self.n, self.T = n, T

        self.entry = rng.integers(0, T - 1, size=n)
        span = 1 + rng.geometric(_SPAN_GEOMETRIC_P, size=n)
        self.last = self.entry + np.minimum(span, T - self.entry) - 1
        # Cell k is company c[k] in grid year t[k]; company i's cells start at first[i].
        spans = self.last - self.entry + 1
        self.c = np.repeat(np.arange(n), spans)
        first = np.cumsum(spans) - spans
        self.t = np.arange(self.c.size) - first[self.c] + self.entry[self.c]
        flat = self.c * T + self.t

        def at_cells(grid):
            return grid.reshape(-1).take(flat)

        self.country_idx = rng.choice(len(DEFAULT_COUNTRIES), size=n, p=COUNTRY_PROBS)
        self.incorporation = y0 + self.entry - rng.integers(1, 41, size=n)
        quality = rng.normal(0.0, 1.0, size=n)

        # Log-assets random walk over years y0-1 .. y1 (the extra leading
        # column feeds previous_sales of the entry year): cell k's year sits
        # at flat + c + 1 of the (n, T+1) walk, the year before at flat + c.
        la0 = rng.normal(np.log(2e6), 1.2, size=n)
        steps = rng.normal(0.02, 0.18, size=(n, T))
        log_assets = np.concatenate([la0[:, None], la0[:, None] + np.cumsum(steps, axis=1)], axis=1).reshape(-1)
        ext = flat + self.c
        prev_assets = np.exp(log_assets.take(ext))
        self.assets = np.exp(log_assets.take(ext + 1))

        q, q_grid = quality[self.c], quality[:, None]
        self.equity_frac = np.clip(0.32 + 0.10 * q + 0.06 * at_cells(rng.normal(size=(n, T))), 0.02, 0.92)
        self.net_worth = self.assets * self.equity_frac
        self.liabilities = self.assets - self.net_worth
        self.financial_debt = self.liabilities * np.clip(
            0.45 + 0.15 * at_cells(rng.normal(size=(n, T))), 0.05, 0.95
        )
        self.gross_margin = np.exp(at_cells(rng.normal(np.log(0.11) + 0.07 * q_grid, 0.45, size=(n, T))))
        self.gross_income = self.assets * self.gross_margin

        log_turnover = rng.normal(np.log(1.05), 0.35, size=(n, T + 1)).reshape(-1)
        self.sales = self.assets * np.exp(log_turnover.take(ext + 1))
        self.prev_sales = prev_assets * np.exp(log_turnover.take(ext))

        self.tca = self.assets * np.clip(0.30 + 0.08 * q + 0.08 * at_cells(rng.normal(size=(n, T))), 0.05, 0.90)
        log_ratio = at_cells(rng.normal(np.log(1.05) + 0.18 * q_grid, 0.30, size=(n, T)))
        self.current_ratio = np.clip(np.exp(log_ratio), 0.2, 6.0)
        self.tcl = self.tca / self.current_ratio
        self.cash = self.tca * np.clip(0.25 + 0.10 * at_cells(rng.normal(size=(n, T))), 0.01, 0.90)
        self.working_capital = self.tca - self.tcl
        self.net_income = self.sales * (0.025 + 0.03 * q + at_cells(rng.normal(0.0, 0.05, size=(n, T))))
        self.employees = np.maximum(
            1, np.round(self.assets / 2e5 * np.exp(at_cells(rng.normal(0.0, 0.4, size=(n, T)))))
        )

        self.score = self._score()
        # The draw window: every cell but each company's first, with its uniform and
        # signal_strength times the previous cell's score (the draw for year t reads t-1's).
        window = np.ones(self.c.size, dtype=bool)
        window[first] = False
        self.win_c, self.win_t = self.c[window], self.t[window]
        self.win_u = at_cells(rng.random((n, T)))[window]
        self.win_s = config.signal_strength * self.score[np.flatnonzero(window) - 1]

        self.masks = {
            name: at_cells(rng.random((n, T))) < config.missing_rates[name]
            for name in sorted(config.missing_rates)
            if config.missing_rates[name] > 0
        }

    def _score(self) -> np.ndarray:
        """Planted default score from the true year-t ratios, squashed to
        O(1) per ratio with fixed centers and scales."""
        tib = self.years[self.t] - self.incorporation[self.c]
        z = {
            "r1_solvency": (self.equity_frac - 0.32) / 0.12,
            "r2_solvency": (self.financial_debt / self.gross_income - 3.0) / 2.5,
            "r1_liquidity": (self.current_ratio - 1.1) / 0.5,
            "r2_liquidity": (self.cash / self.sales - 0.07) / 0.06,
            "r1_profitability": (self.working_capital / self.sales - 0.01) / 0.12,
            "r2_profitability": 2.5 * np.tanh(self.net_income / 2e5),
            "r3_profitability": (self.gross_margin - 0.12) / 0.07,
            "time_in_business": (tib - 20.0) / 12.0,
            "sales_evolution": 2.5 * np.tanh((self.sales - self.prev_sales) / 3e5),
        }
        score = np.zeros(self.c.size)
        for name, weight in RATIO_WEIGHTS.items():
            score += weight * np.clip(z[name], -3.0, 3.0)
        effects = np.array([COUNTRY_EFFECT[c] for c in DEFAULT_COUNTRIES])
        return score + effects[self.country_idx[self.c]]

    def default_year(self, intercept: float) -> np.ndarray:
        """First grid index where the default draw fires, -1 if never; the
        draw runs on the window cells only."""
        hit = self.win_u < sigmoid(intercept + self.win_s)
        c, t = self.win_c[hit], self.win_t[hit]
        first = np.diff(c, prepend=-1) != 0  # cells run by company, then year
        D = np.full(self.n, -1)
        D[c[first]] = t[first]
        return D

    def labeled_rate(self, intercept: float) -> float:
        """Fraction of labeled rows with label 1, under this intercept."""
        D = self.default_year(intercept)
        end = np.where(D >= 0, D, self.last)
        pairs = (end - self.entry).sum()
        return float((D >= 0).sum() / pairs)


def _calibrate_intercept(panel: _Panel) -> float:
    target = panel.config.target_rate
    lo, hi = _BISECT_LO, _BISECT_HI
    rate_lo, rate_hi = panel.labeled_rate(lo), panel.labeled_rate(hi)
    if not rate_lo <= target <= rate_hi:
        raise GenerationError(
            f"default-rate target {target:.4%} is unreachable at "
            f"signal_strength={panel.config.signal_strength}; achievable range "
            f"is [{rate_lo:.4%}, {rate_hi:.4%}]"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if panel.labeled_rate(mid) < target:
            lo, moved = mid, mid != lo
        else:
            hi, moved = mid, mid != hi
        if not moved:  # a fixed point: every later step would compute this mid and decide the same
            break
    return hi


def generate_statements(config: GeneratorConfig) -> tuple[Statements, SynthOracle]:
    """Generate the panel as columns plus the generator's own ground truth.

    Company i files for grid years entry..end, where end is its default
    year or its last filing year; rows run by company, then year. The
    oracle rows are the same cells with t < end.
    """
    panel = _Panel(config)
    intercept = _calibrate_intercept(panel)
    realized = panel.labeled_rate(intercept)
    target = config.target_rate
    if abs(realized - target) > 0.2 * target:
        raise GenerationError(
            f"calibration landed at {realized:.4%}, outside 20% relative of "
            f"the {target:.4%} target; the panel is too small for this "
            f"imbalance_ratio"
        )

    D = panel.default_year(intercept)
    end = np.where(D >= 0, D, panel.last)

    # The kept cells: each company's leading cells, up to its year end.
    kept = panel.t <= end[panel.c]
    company, t = panel.c[kept], panel.t[kept]

    id_width = len(str(config.n_companies))
    ids = np.array([f"C{i:0{id_width}d}" for i in range(config.n_companies)])
    values = {
        "company_id": ids[company],
        "statement_year": panel.years[t],
        "out_of_business": t == D[company],
        "country_code": np.array(DEFAULT_COUNTRIES)[panel.country_idx[company]],
        "incorporation_year": panel.incorporation[company],
        "total_employees": panel.employees[kept],
        "net_worth": panel.net_worth[kept],
        "total_assets": panel.assets[kept],
        "gross_income": panel.gross_income[kept],
        "total_liabilities": panel.liabilities[kept],
        "current_ratio": panel.current_ratio[kept],
        "cash_liquid_assets": panel.cash[kept],
        "sales": panel.sales[kept],
        "working_capital": panel.working_capital[kept],
        "net_income": panel.net_income[kept],
        "previous_sales": panel.prev_sales[kept],
        "financial_debt": panel.financial_debt[kept],
        "total_current_assets": panel.tca[kept],
        "total_current_liabilities": panel.tcl[kept],
    }
    missing = {
        name: panel.masks[name][kept] if name in panel.masks else np.zeros(company.size, dtype=bool)
        for name in _KINDS
    }

    live = t < end[company]
    oracle = SynthOracle(
        company_ids=ids[company[live]].tolist(),
        years=panel.years[t[live]],
        propensity=sigmoid(intercept + config.signal_strength * panel.score[kept][live]),
        intercept=float(intercept),
        realized_rate=realized,
        target_rate=target,
    )
    return Statements(values, missing), oracle


# Fractions of rated companies assigned to each reference grade, least to
# most risky, when deriving the opaque reference-grade stream from the
# generator's true propensities.
GRADE_FRACTIONS = (0.30, 0.25, 0.20, 0.13, 0.08, 0.04)


def oracle_reference_grades(oracle: SynthOracle, fractions: Sequence[float] = GRADE_FRACTIONS) -> np.ndarray:
    """Reference grade of each oracle row by propensity quantile, as a code
    into ``grading.GRADES``.

    Stands in for an external expert rating system: companies in the lowest
    propensity quantiles get the safest grades.
    """
    from .grading import GRADES

    if len(fractions) != len(GRADES) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must cover the six grades and sum to 1")
    cuts = np.quantile(oracle.propensity, np.cumsum(fractions)[:-1])
    return np.searchsorted(cuts, oracle.propensity, side="right")

