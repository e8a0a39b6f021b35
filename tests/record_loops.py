"""Record-at-a-time reference versions of the column code in ``dataprep`` and
``synthgen``: the loops the package used before its rules ran over whole
columns. Also the generator's panel on the whole company x year grid
(``GridPanel``, with ``generate_on_grid``), before it kept only the filing
cells, and the default draw on that grid, before it ran on the draw window's
cells alone; the random forest fit on bootstrap
rows repeated, before it fit on bootstrap counts, and SMOTE's neighbor search
over every pair's distance tensor with a full stable sort, before it
re-checked only the candidates of a GEMM prefilter, and the intercept
bisection's full 80 halvings, before it stopped at its fixed point; and
map-grades' join of rows to reference grades through a dict and a row loop
(``paired_grades``), before it searched sorted key columns. Tests compare the
package against them; nothing in ``src/`` imports this module.

A raw statement here is a ``CompanyRecord``; ``to_statements`` and
``to_records`` convert between records and the package's ``Statements``
columns.
"""

import csv
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from pdxplain.dataprep import (
    _KINDS,
    CONTINUOUS_COLUMNS,
    DEFAULT_COUNTRIES,
    REQUIRED_RATIO_FIELDS,
    FeatureMatrix,
    Rejection,
    Statements,
)
from pdxplain.models import RFParams, TreeEnsembleModel, sigmoid
from pdxplain.synthgen import (
    _BISECT_HI,
    _BISECT_LO,
    _SPAN_GEOMETRIC_P,
    COUNTRY_EFFECT,
    COUNTRY_PROBS,
    RATIO_WEIGHTS,
    GenerationError,
    GeneratorConfig,
    SynthOracle,
)
from pdxplain.trees import GINI, TreeConfig, fit_tree


@dataclass
class CompanyRecord:
    """One raw yearly financial statement. Any field besides the identifying
    pair may be missing (None)."""

    company_id: str
    statement_year: int
    out_of_business: Optional[bool] = None
    country_code: Optional[str] = None
    total_employees: Optional[float] = None
    net_worth: Optional[float] = None
    total_assets: Optional[float] = None
    gross_income: Optional[float] = None
    total_liabilities: Optional[float] = None
    current_ratio: Optional[float] = None
    cash_liquid_assets: Optional[float] = None
    sales: Optional[float] = None
    working_capital: Optional[float] = None
    net_income: Optional[float] = None
    incorporation_year: Optional[int] = None
    previous_sales: Optional[float] = None
    financial_debt: Optional[float] = None
    total_current_assets: Optional[float] = None
    total_current_liabilities: Optional[float] = None


RECORD_FIELDS = tuple(f.name for f in fields(CompanyRecord))


@dataclass
class FeatureVector:
    """Model input row: ratio features, one-hot country, and the label."""

    company_id: str
    statement_year: int
    r1_solvency: float
    r2_solvency: float
    r1_liquidity: float
    r2_liquidity: float
    r1_profitability: float
    r2_profitability: float
    r3_profitability: float
    time_in_business: float
    sales_evolution: float
    country_onehot: np.ndarray
    label: int


def to_statements(records) -> Statements:
    """``records`` as columns; a None cell is missing and holds its type's zero."""
    values, missing = {}, {}
    for name, kind in _KINDS.items():
        cells = [getattr(rec, name) for rec in records]
        missing[name] = np.array([v is None for v in cells], dtype=bool)
        values[name] = np.array([kind() if v is None else v for v in cells], dtype=kind)
    return Statements(values, missing)


def to_records(statements) -> list:
    """The rows of ``statements`` as records, missing cells as None."""
    columns = []
    for name in RECORD_FIELDS:
        cells = statements.values[name].tolist()
        for i in np.flatnonzero(statements.missing[name]).tolist():
            cells[i] = None
        columns.append(cells)
    return list(map(CompanyRecord, *columns))


def label_records(records):
    by_company = {}
    order = []
    for rec in records:
        if not rec.company_id:
            raise ValueError("company_id must be non-empty")
        years = by_company.setdefault(rec.company_id, {})
        if not years:
            order.append(rec.company_id)
        if rec.statement_year in years:
            raise ValueError(
                f"duplicate statement for company {rec.company_id!r}, "
                f"year {rec.statement_year}"
            )
        years[rec.statement_year] = rec

    labeled = []
    for cid in order:
        years = by_company[cid]
        for year in sorted(years):
            rec = years[year]
            nxt = years.get(year + 1)
            if rec.out_of_business is None or rec.out_of_business:
                continue
            if nxt is None or nxt.out_of_business is None:
                continue
            labeled.append((rec, 1 if nxt.out_of_business else 0))
    return labeled


class _ZeroDenominator(Exception):
    pass


def _ratio(num, den, den_name):
    if den == 0:
        raise _ZeroDenominator(den_name)
    return num / den


def compute_ratios(record, label, countries=DEFAULT_COUNTRIES):
    def reject(reason):
        return Rejection(record.company_id, record.statement_year, reason)

    for name in REQUIRED_RATIO_FIELDS:
        if getattr(record, name) is None:
            return reject(f"missing:{name}")
    if record.country_code not in countries:
        return reject(f"unknown_country:{record.country_code}")
    if record.statement_year < record.incorporation_year:
        return reject("invalid:time_in_business")

    try:
        values = {
            "r1_solvency": _ratio(record.net_worth, record.total_assets, "total_assets"),
            "r2_solvency": _ratio(record.financial_debt, record.gross_income, "gross_income"),
            "r1_liquidity": _ratio(
                record.total_current_assets,
                record.total_current_liabilities,
                "total_current_liabilities",
            ),
            "r2_liquidity": _ratio(record.cash_liquid_assets, record.sales, "sales"),
            "r1_profitability": _ratio(record.working_capital, record.sales, "sales"),
            "r2_profitability": float(record.net_income),
            "r3_profitability": _ratio(record.gross_income, record.total_assets, "total_assets"),
            "time_in_business": float(record.statement_year - record.incorporation_year),
            "sales_evolution": record.sales - record.previous_sales,
        }
    except _ZeroDenominator as exc:
        return reject(f"zero_denominator:{exc.args[0]}")

    for name, value in values.items():
        if not np.isfinite(value):
            return reject(f"nonfinite:{name}")

    onehot = np.zeros(len(countries))
    onehot[list(countries).index(record.country_code)] = 1.0
    return FeatureVector(
        company_id=record.company_id,
        statement_year=record.statement_year,
        country_onehot=onehot,
        label=label,
        **values,
    )


def build_feature_matrix(labeled, countries=DEFAULT_COUNTRIES):
    columns = list(CONTINUOUS_COLUMNS) + [f"country_{c}" for c in countries]
    vectors = []
    rejections = []
    for rec, label in labeled:
        out = compute_ratios(rec, label, countries)
        if isinstance(out, Rejection):
            rejections.append(out)
        else:
            vectors.append(out)

    n = len(vectors)
    X = np.zeros((n, len(columns)))
    y = np.zeros(n, dtype=int)
    ids = []
    years = np.zeros(n, dtype=int)
    for i, v in enumerate(vectors):
        X[i, : len(CONTINUOUS_COLUMNS)] = [getattr(v, c) for c in CONTINUOUS_COLUMNS]
        X[i, len(CONTINUOUS_COLUMNS) :] = v.country_onehot
        y[i] = v.label
        ids.append(v.company_id)
        years[i] = v.statement_year
    return FeatureMatrix(columns, X, y, ids, years), rejections


def default_rate_report(records):
    labeled = label_records(records)
    if not labeled:
        return []
    counts = {}
    defaults = {}
    for rec, label in labeled:
        counts[rec.statement_year] = counts.get(rec.statement_year, 0) + 1
        defaults[rec.statement_year] = defaults.get(rec.statement_year, 0) + label
    lo, hi = min(counts), max(counts)
    report = []
    for year in range(lo, hi + 1):
        n = counts.get(year, 0)
        d = defaults.get(year, 0)
        report.append({"year": year, "count": n, "defaults": d, "rate": (d / n) if n else 0.0})
    return report


class GridPanel:
    """All company-year arrays on the (n_companies, n_years) grid: the
    generator's panel before it kept only the filing cells."""

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

        self.country_idx = rng.choice(len(DEFAULT_COUNTRIES), size=n, p=COUNTRY_PROBS)
        self.incorporation = y0 + self.entry - rng.integers(1, 41, size=n)
        quality = rng.normal(0.0, 1.0, size=n)

        # Log-assets random walk over years y0-1 .. y1 (the extra leading
        # column feeds previous_sales of the entry year).
        la0 = rng.normal(np.log(2e6), 1.2, size=n)
        steps = rng.normal(0.02, 0.18, size=(n, T))
        log_assets = np.concatenate([la0[:, None], la0[:, None] + np.cumsum(steps, axis=1)], axis=1)
        assets_ext = np.exp(log_assets)  # (n, T+1)
        self.assets = assets_ext[:, 1:]

        q = quality[:, None]
        self.equity_frac = np.clip(0.32 + 0.10 * q + 0.06 * rng.normal(size=(n, T)), 0.02, 0.92)
        self.net_worth = self.assets * self.equity_frac
        self.liabilities = self.assets - self.net_worth
        self.financial_debt = self.liabilities * np.clip(
            0.45 + 0.15 * rng.normal(size=(n, T)), 0.05, 0.95
        )
        self.gross_margin = np.exp(rng.normal(np.log(0.11) + 0.07 * q, 0.45, size=(n, T)))
        self.gross_income = self.assets * self.gross_margin

        log_turnover = rng.normal(np.log(1.05), 0.35, size=(n, T + 1))
        sales_ext = assets_ext * np.exp(log_turnover)
        self.sales = sales_ext[:, 1:]
        self.prev_sales = sales_ext[:, :-1]

        self.tca = self.assets * np.clip(0.30 + 0.08 * q + 0.08 * rng.normal(size=(n, T)), 0.05, 0.90)
        self.current_ratio = np.clip(np.exp(rng.normal(np.log(1.05) + 0.18 * q, 0.30, size=(n, T))), 0.2, 6.0)
        self.tcl = self.tca / self.current_ratio
        self.cash = self.tca * np.clip(0.25 + 0.10 * rng.normal(size=(n, T)), 0.01, 0.90)
        self.working_capital = self.tca - self.tcl
        self.net_income = self.sales * (0.025 + 0.03 * q + rng.normal(0.0, 0.05, size=(n, T)))
        self.employees = np.maximum(
            1, np.round(self.assets / 2e5 * np.exp(rng.normal(0.0, 0.4, size=(n, T))))
        )

        self.score = self._score()
        self.default_uniforms = rng.random((n, T))
        self.gather_window()

        self.masks = {
            name: rng.random((n, T)) < config.missing_rates[name]
            for name in sorted(config.missing_rates)
            if config.missing_rates[name] > 0
        }

    def _score(self) -> np.ndarray:
        """Planted default score from the true year-t ratios, squashed to
        O(1) per ratio with fixed centers and scales."""
        tib = self.years[None, :] - self.incorporation[:, None]
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
        score = np.zeros((self.n, self.T))
        for name, weight in RATIO_WEIGHTS.items():
            score += weight * np.clip(z[name], -3.0, 3.0)
        effects = np.array([COUNTRY_EFFECT[c] for c in DEFAULT_COUNTRIES])
        return score + effects[self.country_idx][:, None]

    def gather_window(self) -> None:
        """Collect the draw window, company-major: years after entry up to the
        last filing year, with their uniforms and signal_strength times the
        score of the year before (the draw for year t reads the score at t-1)."""
        cols = np.arange(self.T)[None, :]
        self.win_c, self.win_t = np.nonzero((cols > self.entry[:, None]) & (cols <= self.last[:, None]))
        self.win_u = self.default_uniforms[self.win_c, self.win_t]
        self.win_s = self.config.signal_strength * self.score[self.win_c, self.win_t - 1]

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


def default_year(panel, intercept):
    """First grid index where the default draw fires, -1 if never, drawn on
    the whole company x year grid and masked to the window: years strictly
    after entry and up to the last filing year. The draw for year t uses the
    score at t-1."""
    s = panel.config.signal_strength
    p_next = np.zeros((panel.n, panel.T))
    p_next[:, 1:] = sigmoid(intercept + s * panel.score[:, :-1])
    cols = np.arange(panel.T)[None, :]
    window = (cols > panel.entry[:, None]) & (cols <= panel.last[:, None])
    hit = (panel.default_uniforms < p_next) & window
    any_hit = hit.any(axis=1)
    return np.where(any_hit, hit.argmax(axis=1), -1)


def labeled_rate(panel, intercept):
    D = default_year(panel, intercept)
    end = np.where(D >= 0, D, panel.last)
    pairs = (end - panel.entry).sum()
    return float((D >= 0).sum() / pairs)


def calibrate_intercept(panel):
    """The bisected intercept after all 80 halvings, and every intercept
    whose rate it measured (the two bracket ends first)."""
    target = panel.config.target_rate
    lo, hi = _BISECT_LO, _BISECT_HI
    visited = [lo, hi]
    if not labeled_rate(panel, lo) <= target <= labeled_rate(panel, hi):
        raise GenerationError("default-rate target unreachable")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        visited.append(mid)
        if labeled_rate(panel, mid) < target:
            lo = mid
        else:
            hi = mid
    return hi, visited


def generate_with_oracle(config):
    panel = GridPanel(config)
    intercept, _ = calibrate_intercept(panel)
    realized = labeled_rate(panel, intercept)
    target = config.target_rate
    if abs(realized - target) > 0.2 * target:
        raise GenerationError("calibration outside 20% relative of the target")

    D = default_year(panel, intercept)
    end = np.where(D >= 0, D, panel.last)
    p_next = sigmoid(intercept + config.signal_strength * panel.score)

    id_width = len(str(config.n_companies))
    records = []
    oracle_ids, oracle_years, oracle_p = [], [], []
    grid = {
        "total_employees": panel.employees,
        "net_worth": panel.net_worth,
        "total_assets": panel.assets,
        "gross_income": panel.gross_income,
        "total_liabilities": panel.liabilities,
        "current_ratio": panel.current_ratio,
        "cash_liquid_assets": panel.cash,
        "sales": panel.sales,
        "working_capital": panel.working_capital,
        "net_income": panel.net_income,
        "previous_sales": panel.prev_sales,
        "financial_debt": panel.financial_debt,
        "total_current_assets": panel.tca,
        "total_current_liabilities": panel.tcl,
    }
    for i in range(config.n_companies):
        cid = f"C{i:0{id_width}d}"
        country = DEFAULT_COUNTRIES[panel.country_idx[i]]
        inc_year = int(panel.incorporation[i])
        for t in range(int(panel.entry[i]), int(end[i]) + 1):
            year = int(panel.years[t])

            def cell(name, value):
                mask = panel.masks.get(name)
                if mask is not None and mask[i, t]:
                    return None
                return value

            records.append(CompanyRecord(
                company_id=cid,
                statement_year=year,
                out_of_business=bool(t == D[i]),
                country_code=cell("country_code", country),
                incorporation_year=cell("incorporation_year", inc_year),
                **{name: cell(name, float(arr[i, t])) for name, arr in grid.items()},
            ))
            if t < end[i]:
                oracle_ids.append(cid)
                oracle_years.append(year)
                oracle_p.append(float(p_next[i, t]))

    oracle = SynthOracle(
        company_ids=oracle_ids,
        years=np.asarray(oracle_years, dtype=int),
        propensity=np.asarray(oracle_p),
        intercept=float(intercept),
        realized_rate=realized,
        target_rate=target,
    )
    return records, oracle


def generate_on_grid(config):
    """``synthgen.generate_statements`` on the grid panel, with the full
    80-step bisection.

    Company i files for grid years entry..end, where end is its default
    year or its last filing year; rows run by company, then year. The
    oracle rows are the same cells with t < end.
    """
    panel = GridPanel(config)
    intercept, _ = calibrate_intercept(panel)
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

    # The kept (company, year) cells: company i repeated over entry..end.
    spans = end - panel.entry + 1
    company = np.repeat(np.arange(config.n_companies), spans)
    t = np.arange(company.size) - np.repeat(np.cumsum(spans) - spans, spans) + panel.entry[company]

    id_width = len(str(config.n_companies))
    ids = np.array([f"C{i:0{id_width}d}" for i in range(config.n_companies)])
    values = {
        "company_id": ids[company],
        "statement_year": panel.years[t],
        "out_of_business": t == D[company],
        "country_code": np.array(DEFAULT_COUNTRIES)[panel.country_idx[company]],
        "incorporation_year": panel.incorporation[company],
        "total_employees": panel.employees[company, t],
        "net_worth": panel.net_worth[company, t],
        "total_assets": panel.assets[company, t],
        "gross_income": panel.gross_income[company, t],
        "total_liabilities": panel.liabilities[company, t],
        "current_ratio": panel.current_ratio[company, t],
        "cash_liquid_assets": panel.cash[company, t],
        "sales": panel.sales[company, t],
        "working_capital": panel.working_capital[company, t],
        "net_income": panel.net_income[company, t],
        "previous_sales": panel.prev_sales[company, t],
        "financial_debt": panel.financial_debt[company, t],
        "total_current_assets": panel.tca[company, t],
        "total_current_liabilities": panel.tcl[company, t],
    }
    missing = {
        name: panel.masks[name][company, t] if name in panel.masks else np.zeros(company.size, dtype=bool)
        for name in _KINDS
    }

    live = t < end[company]
    oracle = SynthOracle(
        company_ids=ids[company[live]].tolist(),
        years=panel.years[t[live]],
        propensity=sigmoid(intercept + config.signal_strength * panel.score[company[live], t[live]]),
        intercept=float(intercept),
        realized_rate=realized,
        target_rate=target,
    )
    return Statements(values, missing), oracle


_STR_FIELDS = {"company_id", "country_code"}
_BOOL_FIELDS = {"out_of_business"}
_INT_FIELDS = {"statement_year", "incorporation_year"}


def _format_cell(name, value):
    if value is None:
        return ""
    if name in _STR_FIELDS:
        return str(value)
    if name in _BOOL_FIELDS:
        return "true" if value else "false"
    if name in _INT_FIELDS:
        return str(int(value))
    return repr(float(value))


def write_records(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow(
                [rec.company_id] + [_format_cell(n, getattr(rec, n)) for n in RECORD_FIELDS[1:]]
            )


def fit_rf_repeated_rows(X, y, params: RFParams, columns, seed):
    n, d = X.shape
    frac = np.sqrt(d) / d
    n_boot = max(1, int(round(params.bootstrap_fraction * n)))
    trees = []
    for child in np.random.SeedSequence(seed).spawn(params.n_estimators):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n_boot)
        tree_seed = int(child.generate_state(1)[0])
        cfg = TreeConfig(
            max_depth=params.max_depth,
            criterion=GINI,
            feature_subsample_fraction=frac,
            seed=tree_seed,
        )
        trees.append(fit_tree(X[boot], y[boot], cfg))
    return TreeEnsembleModel("rf", trees, np.ones(len(trees)), 0.0, params, columns, seed)


def minority_neighbors(X_min, k):
    """Each row's k nearest other rows: explicit coordinate differences for
    blocks of 128 query rows, every distance sorted stably (ties by row
    index)."""
    n = X_min.shape[0]
    out = np.empty((n, min(k, n)), dtype=np.intp)
    for start in range(0, n, 128):
        stop = min(start + 128, n)
        d2 = ((X_min[start:stop, None, :] - X_min[None, :, :]) ** 2).sum(axis=2)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def paired_grades(data: FeatureMatrix, probs, stream, per_year=True):
    """``pipeline._paired_grades`` as a dict and a loop: ``stream`` holds
    (company_id, year, grade letter) rows, keyed by (company, year), or by
    company alone when not ``per_year``."""
    entries = {(c, int(y)) if per_year else c: g for c, y, g in stream}
    grades, kept = [], []
    for i in range(data.n):
        grade = entries.get((data.company_ids[i], int(data.years[i])) if per_year else data.company_ids[i])
        if grade is not None:
            grades.append(grade)
            kept.append(i)
    if data.n and not kept:
        raise ValueError("no rows matched the reference grade stream")
    return grades, probs[np.asarray(kept, dtype=int)]
