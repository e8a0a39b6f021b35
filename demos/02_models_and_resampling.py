"""Train the four classifier families with and without minority oversampling.

On heavily imbalanced data, models trained on the raw training split barely
recognize next-year defaulters at the 0.5 threshold; interpolating synthetic
minority rows (k nearest neighbors, minority/majority ratio 0.5) trades some
precision for a large recall gain.
"""

import pdxplain as px

config = px.GeneratorConfig(
    n_companies=6000,
    year_range=(2004, 2018),
    imbalance_ratio=40.0,
    signal_strength=1.0,
    seed=17,
)
statements, _ = px.generate_statements(config)
prep = px.prepare(statements, px.SplitSpec(test_fraction=0.3, seed=1))
train, validation = prep.split.train, prep.split.validation
print(f"train {train.n} rows ({int(train.y.sum())} defaulted), validation {validation.n} rows")

resampled = px.resample(train, px.SmoteConfig(k=10, target_ratio=0.5, seed=2)).data
print(f"after oversampling: {resampled.n} rows ({int(resampled.y.sum())} defaulted)\n")

# Hyperparameters follow the library defaults except where smaller values
# keep this demo fast.
specs = {
    "lr": None,
    "adaboost": {"n_estimators": 40},
    "rf": {"n_estimators": 60, "max_depth": 10},
    "gbt": {"n_estimators": 60, "max_depth": 6},
}

print(f"{'model':10s} {'setting':4s} {'acc':>7s} {'prec':>7s} {'recall':>7s} {'f1':>7s} {'auc':>7s}")
for kind, params in specs.items():
    for setting, data in (("WRS", train), ("RS", resampled)):
        model = px.fit(kind, data, params, seed=5)
        r = px.evaluate(validation.y, px.predict_proba(model, validation))
        print(
            f"{kind:10s} {setting:4s} {100 * r.accuracy:7.2f} {100 * r.precision:7.2f} "
            f"{100 * r.recall:7.2f} {r.f1:7.4f} {r.auc:7.4f}"
        )
