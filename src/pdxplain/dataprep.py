"""Turn raw yearly company statements into labeled, scaled feature matrices.

The flow is: label consecutive-year statements, derive the ratio features,
one-hot encode the country, split by statement year, and standardize the
continuous columns with train-only statistics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields as dc_fields
from typing import Optional, Sequence

import numpy as np

# Country list used for one-hot encoding. Statements from any other country
# are rejected rather than silently encoded as all zeros.
DEFAULT_COUNTRIES = ("FR", "GB", "BE", "ES", "NL", "PT")

# Continuous feature columns, in canonical order. These are the columns the
# scaler touches; one-hot country columns and the label pass through.
CONTINUOUS_COLUMNS = (
    "r1_solvency",
    "r2_solvency",
    "r1_liquidity",
    "r2_liquidity",
    "r1_profitability",
    "r2_profitability",
    "r3_profitability",
    "time_in_business",
    "sales_evolution",
)


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


RECORD_FIELDS = tuple(f.name for f in dc_fields(CompanyRecord))

_INT_FIELDS = {"statement_year", "incorporation_year"}
_BOOL_FIELDS = {"out_of_business"}
_STR_FIELDS = {"company_id", "country_code"}
_TRUE_TOKENS = {"1", "true", "yes", "y"}
_FALSE_TOKENS = {"0", "false", "no", "n"}


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


@dataclass
class Rejection:
    """A row dropped during feature computation, with a machine-readable reason."""

    company_id: str
    statement_year: int
    reason: str


@dataclass
class SplitSpec:
    """Year-based split: train/test share the train years, validation years
    are held out untouched."""

    train_years: tuple[int, int] = (2004, 2012)
    validation_years: tuple[int, int] = (2013, 2018)
    test_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        t0, t1 = self.train_years
        v0, v1 = self.validation_years
        if t0 > t1 or v0 > v1:
            raise ValueError("year ranges must be (low, high) inclusive")
        if max(t0, v0) <= min(t1, v1):
            raise ValueError("train and validation year ranges overlap")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")


@dataclass
class ScalerParams:
    """Per-column standardization statistics fitted on the training split.

    Constant columns are recorded with the std sentinel 1.0 and flagged, so
    applying the scaler maps them to exactly zero.
    """

    columns: list[str]
    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "mean": [float(v) for v in self.mean],
            "std": [float(v) for v in self.std],
            "constant": [bool(v) for v in self.constant],
        }


@dataclass
class FeatureMatrix:
    """Dense feature matrix with row identity and labels.

    ``columns`` lists the feature columns of ``X`` in order: the continuous
    ratio columns first, then one ``country_<CC>`` indicator per known country.
    """

    columns: list[str]
    X: np.ndarray
    y: np.ndarray
    company_ids: list[str]
    years: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def subset(self, indices) -> "FeatureMatrix":
        idx = np.asarray(indices, dtype=int)
        return FeatureMatrix(
            columns=list(self.columns),
            X=self.X[idx],
            y=self.y[idx],
            company_ids=[self.company_ids[i] for i in idx],
            years=self.years[idx],
        )

    def continuous_columns(self) -> list[str]:
        return [c for c in self.columns if c in CONTINUOUS_COLUMNS]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["company_id", "statement_year", *self.columns, "label"])
            for i in range(self.n):
                writer.writerow(
                    [self.company_ids[i], int(self.years[i])]
                    + [repr(float(v)) for v in self.X[i]]
                    + [int(self.y[i])]
                )

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["company_id", "statement_year"] or header[-1] != "label":
                raise ValueError(f"unexpected feature CSV header in {path}")
            columns = header[2:-1]
            ids, years, rows, labels = [], [], [], []
            for row in reader:
                ids.append(row[0])
                years.append(int(row[1]))
                rows.append([float(v) for v in row[2:-1]])
                labels.append(int(row[-1]))
        return cls(
            columns=columns,
            X=np.asarray(rows, dtype=float).reshape(len(rows), len(columns)),
            y=np.asarray(labels, dtype=int),
            company_ids=ids,
            years=np.asarray(years, dtype=int),
        )


@dataclass
class SplitResult:
    train: FeatureMatrix
    test: FeatureMatrix
    validation: FeatureMatrix
    train_indices: np.ndarray
    test_indices: np.ndarray
    validation_indices: np.ndarray
    out_of_range: int = 0


def label_records(records: Sequence[CompanyRecord]) -> list[tuple[CompanyRecord, int]]:
    """Attach one-year-horizon default labels.

    For each company with statements in consecutive years t, t+1 where the
    company is not out of business at t, emit (record at t, label) with
    label 1 iff the t+1 statement flags it out of business. Records without
    a t+1 statement, or already out of business at t, produce nothing.

    Raises ValueError on a duplicate (company_id, statement_year) pair.
    """
    by_company: dict[str, dict[int, CompanyRecord]] = {}
    order: list[str] = []
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

    labeled: list[tuple[CompanyRecord, int]] = []
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


def _ratio(num, den, den_name: str):
    if den == 0:
        raise _ZeroDenominator(den_name)
    return num / den


class _ZeroDenominator(Exception):
    pass


# Fields compute_ratios needs, in the order missing-field reasons are reported.
REQUIRED_RATIO_FIELDS = (
    "net_worth",
    "total_assets",
    "financial_debt",
    "gross_income",
    "total_current_assets",
    "total_current_liabilities",
    "cash_liquid_assets",
    "sales",
    "working_capital",
    "net_income",
    "incorporation_year",
    "previous_sales",
    "country_code",
)


def compute_ratios(
    record: CompanyRecord,
    label: int,
    countries: Sequence[str] = DEFAULT_COUNTRIES,
) -> FeatureVector | Rejection:
    """Derive the ratio features for one labeled statement.

    Returns a Rejection instead of a FeatureVector when a required input is
    missing, a denominator is zero, the country is unknown, or any computed
    value is non-finite.
    """

    def reject(reason: str) -> Rejection:
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


def build_feature_matrix(
    labeled: Sequence[tuple[CompanyRecord, int]],
    countries: Sequence[str] = DEFAULT_COUNTRIES,
) -> tuple[FeatureMatrix, list[Rejection]]:
    """Run compute_ratios over labeled records and stack the survivors."""
    columns = list(CONTINUOUS_COLUMNS) + [f"country_{c}" for c in countries]
    vectors: list[FeatureVector] = []
    rejections: list[Rejection] = []
    for rec, label in labeled:
        out = compute_ratios(rec, label, countries)
        if isinstance(out, Rejection):
            rejections.append(out)
        else:
            vectors.append(out)

    n = len(vectors)
    X = np.zeros((n, len(columns)))
    y = np.zeros(n, dtype=int)
    ids: list[str] = []
    years = np.zeros(n, dtype=int)
    for i, v in enumerate(vectors):
        X[i, : len(CONTINUOUS_COLUMNS)] = [getattr(v, c) for c in CONTINUOUS_COLUMNS]
        X[i, len(CONTINUOUS_COLUMNS) :] = v.country_onehot
        y[i] = v.label
        ids.append(v.company_id)
        years[i] = v.statement_year
    return FeatureMatrix(columns, X, y, ids, years), rejections


def split(fm: FeatureMatrix, spec: SplitSpec) -> SplitResult:
    """Partition rows by statement year.

    Train-year rows are shuffled with spec.seed and divided into train and
    test; validation-year rows pass through in input order. Rows outside
    both ranges are dropped and counted.
    """
    t0, t1 = spec.train_years
    v0, v1 = spec.validation_years
    in_train_years = (fm.years >= t0) & (fm.years <= t1)
    in_val_years = (fm.years >= v0) & (fm.years <= v1)
    out_of_range = int(fm.n - in_train_years.sum() - in_val_years.sum())

    pool = np.flatnonzero(in_train_years)
    rng = np.random.default_rng(spec.seed)
    perm = pool[rng.permutation(pool.size)]
    n_test = int(round(spec.test_fraction * pool.size))
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    val_idx = np.flatnonzero(in_val_years)
    if train_idx.size == 0:
        raise ValueError("split produced an empty training set")

    return SplitResult(
        train=fm.subset(train_idx),
        test=fm.subset(test_idx),
        validation=fm.subset(val_idx),
        train_indices=train_idx,
        test_indices=test_idx,
        validation_indices=val_idx,
        out_of_range=out_of_range,
    )


def fit_scaler(train: FeatureMatrix) -> ScalerParams:
    """Fit per-column mean and population standard deviation on the
    continuous columns of the training split."""
    cols = train.continuous_columns()
    idx = [train.columns.index(c) for c in cols]
    sub = train.X[:, idx]
    mean = sub.mean(axis=0)
    std = sub.std(axis=0)  # population (1/N)
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    return ScalerParams(columns=cols, mean=mean, std=std, constant=constant)


def apply_scaler(params: ScalerParams, fm: FeatureMatrix) -> FeatureMatrix:
    """Standardize the continuous columns; one-hot columns and labels pass
    through unchanged. The scaled column set must match the fitted one."""
    cols = fm.continuous_columns()
    if cols != list(params.columns):
        raise ValueError(
            f"scaler columns {params.columns} do not match data columns {cols}"
        )
    idx = [fm.columns.index(c) for c in cols]
    X = fm.X.copy()
    X[:, idx] = (X[:, idx] - params.mean) / params.std
    return FeatureMatrix(list(fm.columns), X, fm.y.copy(), list(fm.company_ids), fm.years.copy())


@dataclass
class PrepareResult:
    """Everything the preparation stage produces: the scaled matrix, the
    split, the fitted scaler, and rejection counts by reason."""

    features: FeatureMatrix
    split: SplitResult
    scaler: ScalerParams
    countries: list[str]
    rejections: list[Rejection] = field(default_factory=list)

    def rejection_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rejections:
            counts[r.reason] = counts.get(r.reason, 0) + 1
        if self.split.out_of_range:
            counts["out_of_year_range"] = self.split.out_of_range
        return dict(sorted(counts.items()))


def prepare(
    records: Sequence[CompanyRecord],
    spec: SplitSpec,
    countries: Sequence[str] = DEFAULT_COUNTRIES,
) -> PrepareResult:
    """Full preparation pass: label, derive features, split, and scale.

    The scaler is fitted on the training split only and then applied to all
    rows, so test and validation never leak into the statistics.
    """
    labeled = label_records(records)
    fm, rejections = build_feature_matrix(labeled, countries)
    sp = split(fm, spec)
    scaler = fit_scaler(sp.train)
    scaled = apply_scaler(scaler, fm)
    sp_scaled = SplitResult(
        train=scaled.subset(sp.train_indices),
        test=scaled.subset(sp.test_indices),
        validation=scaled.subset(sp.validation_indices),
        train_indices=sp.train_indices,
        test_indices=sp.test_indices,
        validation_indices=sp.validation_indices,
        out_of_range=sp.out_of_range,
    )
    return PrepareResult(
        features=scaled,
        split=sp_scaled,
        scaler=scaler,
        countries=list(countries),
        rejections=rejections,
    )


def _parse_cell(name: str, raw: str):
    raw = raw.strip()
    if raw == "":
        return None
    if name in _STR_FIELDS:
        return raw
    if name in _BOOL_FIELDS:
        low = raw.lower()
        if low in _TRUE_TOKENS:
            return True
        if low in _FALSE_TOKENS:
            return False
        raise ValueError(f"cannot parse boolean cell {raw!r} for {name}")
    if name in _INT_FIELDS:
        return int(float(raw))
    return float(raw)


def read_records(path) -> list[CompanyRecord]:
    """Read raw statements from CSV. Column names are the CompanyRecord
    field names; an empty cell means missing."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(RECORD_FIELDS) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"raw CSV is missing columns: {sorted(missing)}")
        for row in reader:
            cid = (row["company_id"] or "").strip()
            if not cid:
                raise ValueError("company_id must be non-empty")
            if (row["statement_year"] or "").strip() == "":
                raise ValueError(f"statement_year missing for company {cid!r}")
            kwargs = {
                name: _parse_cell(name, row[name] or "")
                for name in RECORD_FIELDS
                if name not in ("company_id",)
            }
            records.append(CompanyRecord(company_id=cid, **kwargs))
    return records


def _format_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name in _STR_FIELDS:
        return str(value)
    if name in _BOOL_FIELDS:
        return "true" if value else "false"
    if name in _INT_FIELDS:
        return str(int(value))
    return repr(float(value))


def write_records(path, records: Sequence[CompanyRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow(
                [rec.company_id]
                + [_format_cell(n, getattr(rec, n)) for n in RECORD_FIELDS[1:]]
            )
