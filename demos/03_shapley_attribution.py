"""Explain a trained model with exact Shapley attributions.

The attribution game is interventional: a coalition's value is the mean
model output over a background sample with the coalition's columns replaced
by the explained instance. All 2^M coalition values are computed exactly, so
the attributions satisfy the efficiency axiom to float precision. The
boosted trees explained here are read from their tree structure, not by
evaluating 2^M x 100 hybrid rows per instance; the values are exact on the
probability output. The six one-hot country columns are grouped into one
"country_code" player.
"""

import numpy as np

import pdxplain as px

config = px.GeneratorConfig(
    n_companies=4000, year_range=(2004, 2018), imbalance_ratio=25.0,
    signal_strength=1.0, seed=23,
)
statements, _ = px.generate_statements(config)
prep = px.prepare(statements, px.SplitSpec(seed=3))
train, validation = prep.split.train, prep.split.validation

resampled = px.resample(train, px.SmoteConfig(k=10, target_ratio=0.5, seed=4)).data
model = px.fit("gbt", resampled, {"n_estimators": 50, "max_depth": 5}, seed=0)

attribution_config = px.AttributionConfig(
    background=px.sample_background(train, 100, seed=9),
    group_map=px.group_countries(train.columns),
)

instances = validation.subset(np.arange(20))
report = px.global_importance(model, instances, attribution_config)

print(f"base value (mean model output over background): {report.base_value:.4f}\n")
print("global importance ranking (mean |attribution| over 20 instances):")
for rank, player in enumerate(report.ranking, start=1):
    print(f"  {rank:2d}. {player:18s} {report.importance_by_player()[player]:.5f}")

# Efficiency: per instance the attributions sum exactly to the gap between
# the model output and the base value.
gaps = report.phi.sum(axis=1) + report.base_value - report.predictions
print(f"\nmax |efficiency residual| over instances: {np.abs(gaps).max():.2e}")

# Single-instance view: which ratios pushed this company's probability up?
row = instances.X[0]
phi = px.shapley_values(model, row, attribution_config)
print(f"\ninstance 0: model output {report.predictions[0]:.4f}")
for player, value in sorted(zip(report.players, phi), key=lambda t: -abs(t[1])):
    print(f"  {player:18s} {value:+.5f}")
