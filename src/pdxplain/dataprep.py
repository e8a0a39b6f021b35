"""Turn raw yearly company statements into labeled, scaled feature matrices.

Raw statements travel as ``Statements``: one numpy column per raw field
(the ``_KINDS`` table), each with a missing mask. Every rule runs once over
whole columns: label consecutive-year statements (``label_statements``),
derive the ratio features and rejection reasons and one-hot encode the
country (``statement_features``), split by statement year, and standardize
the continuous columns with train-only statistics; ``prepare`` runs them all.
Statements have no per-row representation.

Between stages, ``Statements`` and ``FeatureMatrix`` travel as numpy ``.npz``
files (``save``/``load``: one array per column, no pickles). The one text
reader is ``read_statements``, which parses a raw statement CSV from outside
the package in blocks of rows.
"""

from __future__ import annotations

import csv
import operator
import zipfile
from dataclasses import dataclass, field
from itertools import islice, repeat
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

# Rows per block when statements are read from CSV.
BLOCK_ROWS = 1024


def _save_npz(path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path`` as an uncompressed .npz without pickles.
    Writing through a handle keeps numpy from appending ``.npz`` to the path;
    every zip member carries numpy's fixed 1980 timestamp, so equal arrays
    give equal bytes."""
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, **arrays)


def _load_npz(path, kinds: dict[str, str], shapes) -> dict[str, np.ndarray]:
    """The arrays named in ``kinds`` from the .npz at ``path``. Each must have
    its numpy dtype kind, and together the shapes ``shapes(arrays)`` gives.
    A file that is not an .npz, a missing array, a pickled (object) array, a
    wrong kind or shape raises ValueError naming the file."""
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with npz:
            absent = [name for name in kinds if name not in npz.files]
            if absent:
                raise ValueError(f"no array {absent[0]!r}")
            arrays = {name: npz[name] for name in kinds}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: {exc}") from None
    for name, kind in kinds.items():
        if arrays[name].dtype.kind != kind:
            raise ValueError(f"{path}: array {name!r} has dtype {arrays[name].dtype}, not of kind {kind!r}")
    got, want = {name: a.shape for name, a in arrays.items()}, shapes(arrays)
    if got != want:
        raise ValueError(f"{path}: array shapes {got} do not agree; expected {want}")
    return arrays


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

    def save(self, path) -> None:
        """Write the columns to ``path`` as a .npz: per field ``f``, array
        ``f`` holds its values and ``f_missing`` its mask."""
        _save_npz(path, {**{name: self.values[name] for name in _KINDS},
                         **{f"{name}_missing": self.missing[name] for name in _KINDS}})

    @classmethod
    def load(cls, path) -> "Statements":
        """Read statements that ``save`` wrote; see ``_load_npz`` for the checks."""
        kinds = {name: np.dtype(kind).kind for name, kind in _KINDS.items()}
        a = _load_npz(path, {**kinds, **{f"{name}_missing": "b" for name in _KINDS}},
                      lambda a: dict.fromkeys(a, (a["statement_year"].size,)))
        return cls({name: a[name] for name in _KINDS}, {name: a[f"{name}_missing"] for name in _KINDS})


@dataclass
class Rejection:
    """A row dropped during feature computation, with a machine-readable reason."""

    company_id: str
    statement_year: int
    reason: str


def _as_int(value, name: str) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a whole number."""
    if not isinstance(value, (bool, float)) or isinstance(value, float) and value.is_integer():
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass
class SplitSpec:
    """Year-based split: train/test share the train years, validation years
    are held out untouched."""

    train_years: tuple[int, int] = (2004, 2012)
    validation_years: tuple[int, int] = (2013, 2018)
    test_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        self.train_years = tuple(_as_int(v, "split.train_years") for v in self.train_years)
        self.validation_years = tuple(_as_int(v, "split.validation_years") for v in self.validation_years)
        self.test_fraction = float(self.test_fraction)
        self.seed = _as_int(self.seed, "split.seed")
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

    def save(self, path) -> None:
        """Write the matrix to ``path`` as a .npz of ``columns``, ``X`` (C
        order), ``y``, ``company_ids`` and ``years``."""
        _save_npz(path, {
            "columns": np.array(self.columns, dtype=str),
            "X": np.ascontiguousarray(self.X),
            "y": self.y,
            "company_ids": np.array(self.company_ids, dtype=str),
            "years": self.years,
        })

    @classmethod
    def load(cls, path) -> "FeatureMatrix":
        """Read a matrix that ``save`` wrote; see ``_load_npz`` for the checks."""
        def shapes(a):
            n, d = a["years"].size, a["columns"].size
            return {"columns": (d,), "X": (n, d), "y": (n,), "company_ids": (n,), "years": (n,)}

        a = _load_npz(path, {"columns": "U", "X": "f", "y": "i", "company_ids": "U", "years": "i"}, shapes)
        return cls(a["columns"].tolist(), a["X"], a["y"], a["company_ids"].tolist(), a["years"])


@dataclass
class SplitResult:
    """The year-based split as row indices into one ``features`` matrix.
    ``train``, ``test`` and ``validation`` build their rows from it on each
    read; the split itself holds no copy of them."""

    features: FeatureMatrix
    train_indices: np.ndarray
    test_indices: np.ndarray
    validation_indices: np.ndarray
    out_of_range: int = 0

    train = property(lambda self: self.features.subset(self.train_indices))
    test = property(lambda self: self.features.subset(self.test_indices))
    validation = property(lambda self: self.features.subset(self.validation_indices))


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
    if n_test == pool.size:
        raise ValueError("split produced an empty training set")
    return SplitResult(fm, perm[n_test:], perm[:n_test], np.flatnonzero(in_val_years), out_of_range)


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
    rows, so test and validation never leak into the statistics; the split
    then indexes the scaled matrix.
    """
    rows, labels = label_statements(statements)
    fm, rejections = statement_features(statements, rows, labels, countries)
    sp = split(fm, spec)
    scaler = fit_scaler(sp.train)
    sp.features = apply_scaler(scaler, fm)
    return PrepareResult(
        features=sp.features,
        split=sp,
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


def _line_of(path, row: int) -> int:
    """The file line on which data row ``row`` (0-based, blank lines
    skipped) ends."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _ in islice(filter(None, reader), row + 1):
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
