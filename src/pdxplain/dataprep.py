"""Turn raw yearly company statements into labeled, scaled feature matrices.

Raw statements travel as ``Statements``: one numpy column per raw field
(the ``_KINDS`` table), each with a missing mask. Every rule runs once over
whole columns: label consecutive-year statements (``label_statements``),
derive the ratio features and rejection reasons and one-hot encode the
country (``statement_features``), split by statement year, and standardize
the continuous columns with train-only statistics; ``prepare`` runs them all.
``read_statements`` and ``write_statements`` move the columns to and from
CSV in blocks of rows. Statements have no per-row representation.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
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

# Raw statement fields in CSV column order, each with the numpy type of its
# column. Any field besides the identifying pair may be missing.
_KINDS = {
    "company_id": str,
    "statement_year": np.int64,
    "out_of_business": bool,
    "country_code": str,
    "total_employees": float,
    "net_worth": float,
    "total_assets": float,
    "gross_income": float,
    "total_liabilities": float,
    "current_ratio": float,
    "cash_liquid_assets": float,
    "sales": float,
    "working_capital": float,
    "net_income": float,
    "incorporation_year": np.int64,
    "previous_sales": float,
    "financial_debt": float,
    "total_current_assets": float,
    "total_current_liabilities": float,
}

_TRUE_TOKENS = {"1", "true", "yes", "y"}
_FALSE_TOKENS = {"0", "false", "no", "n"}
# Lowercased boolean cell -> 1 (true), 0 (false) or -1 (missing).
_BOOL_CODES = {"": -1, **dict.fromkeys(_TRUE_TOKENS, 1), **dict.fromkeys(_FALSE_TOKENS, 0)}

# Rows per block when statements are read from or written to CSV.
BLOCK_ROWS = 1024


@dataclass
class Statements:
    """Raw statements as columns: ``values[f]`` is one numpy array of type
    ``_KINDS[f]`` per raw field ``f`` and ``missing[f]`` its boolean missing
    mask.

    A missing slot holds an arbitrary value that no rule reads. NaN never
    marks a missing cell: a ``nan`` cell is a present value, which
    ``prepare`` rejects as ``nonfinite``, not ``missing``.
    """

    values: dict[str, np.ndarray]
    missing: dict[str, np.ndarray]

    @property
    def n(self) -> int:
        return len(self.values["statement_year"])


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
            csv.writer(fh).writerow(["company_id", "statement_year", *self.columns, "label"])
            for low in range(0, self.n, BLOCK_ROWS):
                block = slice(low, low + BLOCK_ROWS)
                columns = [
                    self.company_ids[block],
                    self.years[block].tolist(),
                    *self.X[block].T.tolist(),  # csv writes str(float), the shortest repr
                    self.y[block].tolist(),
                ]
                csv.writer(fh).writerows(zip(*columns))

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        """Read a feature CSV, BLOCK_ROWS rows at a time. Every row needs the
        header's width; a bad row or cell raises ValueError naming its file
        line."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"feature CSV {path} is empty")
            if header[:2] != ["company_id", "statement_year"] or header[-1] != "label":
                raise ValueError(f"unexpected feature CSV header in {path}")
            width, parts = len(header), []
            while block := list(islice(reader, BLOCK_ROWS)):
                try:
                    parts.append(_parse_feature_block(block, width))
                except ValueError:
                    row, message = next(
                        (i, m) for i, r in enumerate(block) if (m := _feature_row_error(r, width)))
                    line = _line_of(path, BLOCK_ROWS * len(parts) + row, skip_blank=False)
                    raise ValueError(f"{path} line {line}: {message}") from None
        if not parts:
            parts = [((), np.empty(0, np.int64), np.empty((0, width - 3)), np.empty(0, np.int64))]
        ids, years, X, y = zip(*parts)
        return cls(
            columns=header[2:-1],
            X=np.concatenate(X),
            y=np.concatenate(y),
            company_ids=[cid for part in ids for cid in part],
            years=np.concatenate(years),
        )


def _parse_feature_block(rows: list[list[str]], width: int):
    """(ids, years, X, labels) of a block of feature CSV rows; ValueError on
    a row of another width or a cell that does not parse."""
    if set(map(len, rows)) != {width}:
        raise ValueError("row width")
    n, columns = len(rows), list(zip(*rows))
    X = np.fromiter(map(float, chain.from_iterable(columns[2:-1])), float, n * (width - 3))
    return (
        columns[0],
        np.fromiter(map(int, columns[1]), np.int64, n),
        X.reshape(width - 3, n).T.copy(),  # row-major, as np.asarray(rows) gave
        np.fromiter(map(int, columns[-1]), np.int64, n),
    )


def _feature_row_error(row: list[str], width: int) -> Optional[str]:
    """Why one feature CSV row does not parse, or None."""
    if len(row) != width:
        return f"{len(row)} cells, header has {width}"
    try:
        int(row[1])
        [float(v) for v in row[2:-1]]
        int(row[-1])
    except ValueError as exc:
        return str(exc)
    return None


@dataclass
class SplitResult:
    train: FeatureMatrix
    test: FeatureMatrix
    validation: FeatureMatrix
    train_indices: np.ndarray
    test_indices: np.ndarray
    validation_indices: np.ndarray
    out_of_range: int = 0


def label_statements(st: Statements) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``st`` that carry a one-year-horizon default label, and the
    labels.

    The row of a company's year t is labeled when the company also files
    for t+1, neither statement's out-of-business flag is missing, and the
    company is not out of business at t; the label is 1 iff the t+1
    statement flags it out of business. Rows come out by company in order
    of first appearance, then by year: one stable sort over (company, year).

    Raises ValueError at the first row, in input order, whose company_id is
    empty or whose (company_id, statement_year) pair repeats an earlier row.
    """
    ids, years = st.values["company_id"], st.values["statement_year"]
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    company = np.argsort(np.argsort(first))[inverse]  # rank of first appearance
    order = np.lexsort((years, company))
    company, sorted_years = company[order], years[order]
    same = company[1:] == company[:-1]

    repeated = order[1:][same & (sorted_years[1:] == sorted_years[:-1])]
    bad = min(repeated.min(initial=st.n), np.flatnonzero(ids == "").min(initial=st.n))
    if bad < st.n:
        if ids[bad] == "":
            raise ValueError("company_id must be non-empty")
        raise ValueError(
            f"duplicate statement for company {str(ids[bad])!r}, year {int(years[bad])}"
        )

    flag = st.values["out_of_business"][order]
    known = ~st.missing["out_of_business"][order]
    pair = same & (sorted_years[1:] == sorted_years[:-1] + 1) & known[1:] & known[:-1] & ~flag[:-1]
    return order[:-1][pair], flag[1:][pair].astype(int)


def yearly_default_rates(years: np.ndarray, labels: np.ndarray) -> list[dict]:
    """Per-year counts and default fractions of labeled rows.

    Years inside the labeled span with no labeled row report zero count.
    """
    if not len(years):
        return []
    low = int(years.min())
    offset = years - low
    counts = np.bincount(offset).tolist()
    defaults = np.bincount(offset[labels == 1], minlength=len(counts)).tolist()
    return [
        {"year": low + i, "count": n, "defaults": d, "rate": (d / n) if n else 0.0}
        for i, (n, d) in enumerate(zip(counts, defaults))
    ]


# Fields statement_features needs, in the order missing-field reasons are reported.
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

# Denominators in the order the ratios divide by them.
_DENOMINATORS = ("total_assets", "gross_income", "total_current_liabilities", "sales")


def _exact_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``float(a - b)`` of int64 columns, rounded from the exact difference.

    The rows whose int64 difference wraps are redone with Python ints.
    """
    diff = a - b
    wrapped = np.flatnonzero(((a ^ b) & (a ^ diff)) < 0).tolist()
    diff = diff.astype(float)
    for i in wrapped:
        diff[i] = float(int(a[i]) - int(b[i]))
    return diff


def statement_features(
    st: Statements,
    rows: np.ndarray,
    labels,
    countries: Sequence[str] = DEFAULT_COUNTRIES,
) -> tuple[FeatureMatrix, list[Rejection]]:
    """Ratio features, one-hot country and label of ``st``'s labeled
    ``rows``, plus a Rejection for each row dropped.

    A row is rejected for the first reason that applies, in this order: a
    missing required field (in REQUIRED_RATIO_FIELDS order), an unknown
    country, a statement year before incorporation, a zero denominator, and
    a non-finite feature (in CONTINUOUS_COLUMNS order).
    """
    v = {name: st.values[name][rows] for name in ("company_id", "statement_year", *REQUIRED_RATIO_FIELDS)}
    country = v["country_code"]
    code = np.full(len(rows), -1)
    for k in reversed(range(len(countries))):  # a repeated country keeps its first index
        code[country == countries[k]] = k
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        features = {
            "r1_solvency": v["net_worth"] / v["total_assets"],
            "r2_solvency": v["financial_debt"] / v["gross_income"],
            "r1_liquidity": v["total_current_assets"] / v["total_current_liabilities"],
            "r2_liquidity": v["cash_liquid_assets"] / v["sales"],
            "r1_profitability": v["working_capital"] / v["sales"],
            "r2_profitability": v["net_income"],
            "r3_profitability": v["gross_income"] / v["total_assets"],
            "time_in_business": _exact_difference(v["statement_year"], v["incorporation_year"]),
            "sales_evolution": v["sales"] - v["previous_sales"],
        }
    checks = [(st.missing[name][rows], f"missing:{name}") for name in REQUIRED_RATIO_FIELDS]
    checks.append((code < 0, "unknown_country:{}"))
    checks.append((v["statement_year"] < v["incorporation_year"], "invalid:time_in_business"))
    checks += [(v[den] == 0, f"zero_denominator:{den}") for den in _DENOMINATORS]
    checks += [(~np.isfinite(features[c]), f"nonfinite:{c}") for c in CONTINUOUS_COLUMNS]
    # 1 + the index of the first failed check, 0 when the row is kept
    reason = np.select([c for c, _ in checks], range(1, len(checks) + 1), default=0)

    keep = reason == 0
    n_cont = len(CONTINUOUS_COLUMNS)
    X = np.zeros((int(keep.sum()), n_cont + len(countries)))
    X[:, :n_cont] = np.column_stack([features[c][keep] for c in CONTINUOUS_COLUMNS])
    X[np.arange(len(X)), n_cont + code[keep]] = 1.0
    fm = FeatureMatrix(
        columns=list(CONTINUOUS_COLUMNS) + [f"country_{c}" for c in countries],
        X=X,
        y=np.asarray(labels, dtype=int)[keep],
        company_ids=v["company_id"][keep].tolist(),
        years=v["statement_year"][keep],
    )
    dropped = ~keep
    rejections = [
        Rejection(cid, year, checks[k - 1][1].format(cc))
        for cid, year, k, cc in zip(
            v["company_id"][dropped].tolist(),
            v["statement_year"][dropped].tolist(),
            reason[dropped].tolist(),
            country[dropped].tolist(),
        )
    ]
    return fm, rejections


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
    default_rates: list[dict] = field(default_factory=list)  # yearly_default_rates of the labels

    def rejection_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rejections:
            counts[r.reason] = counts.get(r.reason, 0) + 1
        if self.split.out_of_range:
            counts["out_of_year_range"] = self.split.out_of_range
        return dict(sorted(counts.items()))


def prepare(
    statements: Statements,
    spec: SplitSpec,
    countries: Sequence[str] = DEFAULT_COUNTRIES,
) -> PrepareResult:
    """Full preparation pass: label, derive features, split, and scale.

    The scaler is fitted on the training split only and then applied to all
    rows, so test and validation never leak into the statistics.
    """
    rows, labels = label_statements(statements)
    fm, rejections = statement_features(statements, rows, labels, countries)
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
        default_rates=yearly_default_rates(statements.values["statement_year"][rows], labels),
    )


def _first_float_error(cells: list[str]) -> tuple[int, str]:
    for i, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError as exc:
            return i, str(exc)
    raise AssertionError("no unparseable cell")


def _parse_column(name: str, cells) -> tuple[np.ndarray, np.ndarray, Optional[tuple[int, str]]]:
    """Values, missing mask and first bad cell (row, message) of one
    column's raw cells. Cells are stripped; an empty cell is missing."""
    cells = list(map(str.strip, cells))
    n = len(cells)
    kind = _KINDS[name]
    if kind is bool:
        codes = np.fromiter(map(_BOOL_CODES.get, map(str.lower, cells), repeat(-2)), np.int8, n)
        bad = np.flatnonzero(codes == -2)
        error = (int(bad[0]), f"cannot parse boolean cell {cells[bad[0]]!r} for {name}") if bad.size else None
        return codes == 1, codes == -1, error
    missing = np.fromiter(map(operator.not_, cells), bool, n)
    if kind is str:
        return np.array(cells, dtype=str), missing, None
    filled = [cell or "0" for cell in cells] if missing.any() else cells
    try:
        values = np.fromiter(map(float, filled), float, n)
    except ValueError:
        row, message = _first_float_error(filled)
        return np.zeros(n), missing, (row, f"{name}: {message}")
    if kind is float:
        return values, missing, None
    whole = np.isfinite(values) & (values == np.trunc(values)) & (values >= -2.0**63) & (values < 2.0**63)
    bad = np.flatnonzero(~whole)
    if bad.size:
        return np.zeros(n, dtype=np.int64), missing, (
            int(bad[0]), f"{name} cell {cells[bad[0]]!r} is not an integer in the int64 range")
    return values.astype(np.int64), missing, None


def _parse_block(
    rows: list[list[str]], index: dict[str, int], width: int
) -> tuple[Statements, Optional[tuple[int, int, str]]]:
    """Columns of a block of CSV rows, and the (row, field position,
    message) of the block's first bad row and its first bad field, or None
    when every cell parses."""
    if min(map(len, rows)) < width:  # a short row reads as missing cells
        rows = [row + [""] * (width - len(row)) for row in rows]
    columns = list(zip(*rows))
    values, missing, errors = {}, {}, []
    for pos, name in enumerate(_KINDS):
        values[name], missing[name], error = _parse_column(name, columns[index[name]])
        if error is not None:
            errors.append((error[0], pos, error[1]))
    no_id = np.flatnonzero(missing["company_id"])
    if no_id.size:
        errors.append((int(no_id[0]), 0, "company_id must be non-empty"))
    no_year = np.flatnonzero(missing["statement_year"])
    if no_year.size:
        cid = str(values["company_id"][no_year[0]])
        errors.append((int(no_year[0]), 1, f"statement_year missing for company {cid!r}"))
    return Statements(values, missing), min(errors, default=None)


def _line_of(path, row: int, skip_blank: bool = True) -> int:
    """The file line on which data row ``row`` (0-based, blank lines
    skipped unless ``skip_blank`` is False) ends."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _ in islice(filter(None, reader) if skip_blank else reader, row + 1):
            pass
        return reader.line_num


def read_statements(path) -> Statements:
    """Read raw statements from CSV into columns, BLOCK_ROWS rows at a time.

    Column names are the ``_KINDS`` field names and other columns are
    ignored. Cells are stripped, an empty cell means missing, a short row
    reads as missing cells and extra cells are ignored. A bad cell raises
    ValueError naming the file line; so does an empty company_id or
    statement_year. Integer cells must be whole numbers within int64.
    """
    parts = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        absent = set(_KINDS) - set(header)
        if absent:
            raise ValueError(f"raw CSV is missing columns: {sorted(absent)}")
        index = {name: j for j, name in enumerate(header)}  # a repeated name: the last wins
        rows = filter(None, reader)  # blank lines hold no statement
        while block := list(islice(rows, BLOCK_ROWS)):
            part, error = _parse_block(block, index, len(header))
            if error is not None:
                row, _, message = error
                raise ValueError(f"{path} line {_line_of(path, BLOCK_ROWS * len(parts) + row)}: {message}")
            parts.append(part)
    if not parts:  # a header-only file
        return Statements({name: np.empty(0, kind) for name, kind in _KINDS.items()},
                          {name: np.empty(0, bool) for name in _KINDS})
    return Statements(
        {name: np.concatenate([p.values[name] for p in parts]) for name in _KINDS},
        {name: np.concatenate([p.missing[name] for p in parts]) for name in _KINDS},
    )


def _format_column(name: str, values: np.ndarray, missing: np.ndarray) -> list[str]:
    kind = _KINDS[name]
    if kind is bool:
        cells = np.where(values, "true", "false").tolist()
    elif kind is float:
        cells = list(map(repr, values.tolist()))
    else:
        cells = list(map(str, values.tolist()))
    for i in np.flatnonzero(missing).tolist():
        cells[i] = ""
    return cells


def write_statements(path, st: Statements) -> None:
    """Write ``st`` as raw-statement CSV, BLOCK_ROWS rows at a time."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(_KINDS)
        for low in range(0, st.n, BLOCK_ROWS):
            block = slice(low, low + BLOCK_ROWS)
            columns = [
                _format_column(name, st.values[name][block], st.missing[name][block])
                for name in _KINDS
            ]
            csv.writer(fh).writerows(zip(*columns))

