import hashlib
from pathlib import Path

import numpy as np
import pytest

import pdxplain as px
from pdxplain.dataprep import DEFAULT_COUNTRIES, statement_features

from record_loops import CompanyRecord, to_statements


def make_record(
    company_id="C1",
    statement_year=2010,
    out_of_business=False,
    country_code="FR",
    **overrides,
):
    """A complete statement with pleasant round numbers; override at will."""
    base = dict(
        total_employees=40,
        net_worth=50.0,
        total_assets=100.0,
        gross_income=20.0,
        total_liabilities=50.0,
        current_ratio=1.5,
        cash_liquid_assets=15.0,
        sales=120.0,
        working_capital=10.0,
        net_income=6.0,
        incorporation_year=2000,
        previous_sales=110.0,
        financial_debt=30.0,
        total_current_assets=45.0,
        total_current_liabilities=30.0,
    )
    base.update(overrides)
    return CompanyRecord(
        company_id=company_id,
        statement_year=statement_year,
        out_of_business=out_of_business,
        country_code=country_code,
        **base,
    )


def features_of(labeled, countries=DEFAULT_COUNTRIES):
    """``statement_features`` over (record, label) pairs, every row kept in
    order: the feature matrix and the rejections."""
    st = to_statements([rec for rec, _ in labeled])
    return statement_features(st, np.arange(st.n), [label for _, label in labeled], countries)


def random_matrix(n, seed=0, positive_fraction=0.3, columns=None, countries=2):
    """Random labeled FeatureMatrix for algorithm-level tests."""
    rng = np.random.default_rng(seed)
    if columns is None:
        columns = [f"f{i}" for i in range(4)] + [f"country_{c}" for c in ("FR", "GB")[:countries]]
    d = len(columns)
    n_onehot = sum(1 for c in columns if c.startswith("country_"))
    X = rng.normal(size=(n, d))
    if n_onehot:
        X[:, d - n_onehot :] = 0.0
        pick = rng.integers(0, n_onehot, size=n)
        X[np.arange(n), d - n_onehot + pick] = 1.0
    y = (rng.random(n) < positive_fraction).astype(int)
    return px.FeatureMatrix(
        columns=list(columns),
        X=X,
        y=y,
        company_ids=[f"R{i}" for i in range(n)],
        years=np.full(n, 2010),
    )


@pytest.fixture(scope="session")
def small_panel():
    """A small prepared synthetic panel shared across model-level tests."""
    cfg = px.GeneratorConfig(
        n_companies=1200,
        year_range=(2004, 2018),
        imbalance_ratio=15.0,
        signal_strength=1.2,
        seed=7,
    )
    statements, oracle = px.generate_statements(cfg)
    prep = px.prepare(statements, px.SplitSpec(seed=3))
    return {"statements": statements, "oracle": oracle, "prep": prep}


def tree_digest(root) -> str:
    """sha256 over every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def npz_arrays(path) -> dict:
    """Every array of the .npz at ``path``, by name, in file order."""
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def truncated(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def without_first_array(path):
    arrays = npz_arrays(path)
    del arrays[next(iter(arrays))]
    np.savez(path, **arrays)


def last_array_one_short(path):
    arrays = npz_arrays(path)
    last = list(arrays)[-1]
    arrays[last] = arrays[last][:-1]
    np.savez(path, **arrays)


def first_array_pickled(path):
    arrays = npz_arrays(path)
    first = next(iter(arrays))
    arrays[first] = arrays[first].astype(object)
    np.savez(path, allow_pickle=True, **arrays)


# How a stage file can be spoiled, and what the loader then says.
SPOILERS = {
    "truncated": (truncated, "File is not a zip file"),
    "missing_array": (without_first_array, "no array"),
    "unequal_lengths": (last_array_one_short, "do not agree"),
    "pickled": (first_array_pickled, "Object arrays cannot be loaded"),
}
