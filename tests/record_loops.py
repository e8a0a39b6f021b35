"""Record-at-a-time reference versions of the column code in ``dataprep`` and
``synthgen``: the loops the package used before its rules ran over whole
columns. Also the default draw on the whole company x year grid, before it
ran on the draw window's cells alone, the random forest fit on bootstrap
rows repeated, before it fit on bootstrap counts, and SMOTE's neighbor search
over every pair's distance tensor with a full stable sort, before it
re-checked only the candidates of a GEMM prefilter, and the intercept
bisection's full 80 halvings, before it stopped at its fixed point. Tests compare the
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
from pdxplain.models import RFParams, TreeEnsembleModel
from pdxplain.synthgen import (
    _BISECT_HI,
    _BISECT_LO,
    GenerationError,
    SynthOracle,
    _Panel,
    _sigmoid,
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


def default_year(panel, intercept):
    """First grid index where the default draw fires, -1 if never, drawn on
    the whole company x year grid and masked to the window: years strictly
    after entry and up to the last filing year. The draw for year t uses the
    score at t-1."""
    s = panel.config.signal_strength
    p_next = np.zeros((panel.n, panel.T))
    p_next[:, 1:] = _sigmoid(intercept + s * panel.score[:, :-1])
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
    panel = _Panel(config)
    intercept, _ = calibrate_intercept(panel)
    realized = labeled_rate(panel, intercept)
    target = config.target_rate
    if abs(realized - target) > 0.2 * target:
        raise GenerationError("calibration outside 20% relative of the target")

    D = default_year(panel, intercept)
    end = np.where(D >= 0, D, panel.last)
    p_next = _sigmoid(intercept + config.signal_strength * panel.score)

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
