"""Map model probabilities to A-F grades and score expert agreement.

Grade calibration takes a reference rating stream (here derived from the
generator's own propensities) and computes the mean model probability per
grade; midpoints between consecutive means become the decision bounds.
The bundled four-analyst survey then scores how far the model's attribution
ranking diverges from the human weighting.
"""

import numpy as np

import pdxplain as px

config = px.GeneratorConfig(
    n_companies=5000, year_range=(2004, 2018), imbalance_ratio=25.0,
    signal_strength=1.0, seed=31,
)
statements, oracle = px.generate_statements(config)
prep = px.prepare(statements, px.SplitSpec(seed=2))
train, test, validation = prep.split.train, prep.split.test, prep.split.validation

resampled = px.resample(train, px.SmoteConfig(k=10, target_ratio=0.5, seed=3)).data
model = px.fit("gbt", resampled, {"n_estimators": 50, "max_depth": 5}, seed=0)

reference = {(c, int(y)): g for c, y, g in px.oracle_reference_grades(oracle)}


def paired(split):
    probs = px.predict_proba(model, split)
    keys = [(cid, int(year)) for cid, year in zip(split.company_ids, split.years)]
    keep = [i for i, k in enumerate(keys) if k in reference]
    return [reference[keys[i]] for i in keep], probs[np.asarray(keep)]


# Calibrate on the test split, evaluate the mapping on the validation years.
cal = px.calibrate(*paired(test))
print("grade  mean prob  interval")
for (grade, lo, hi), mu in zip(cal.intervals(), cal.mu):
    print(f"  {grade}    {mu:.4f}     [{lo:.4f}, {hi:.4f}]")

val_grades, val_probs = paired(validation)
mapped = px.assign_grades(val_probs, cal)
confusion = px.grade_confusion(val_grades, mapped)
print("\nconfusion matrix (reference rows x mapped columns):")
print("    " + "  ".join(f"{g:>4s}" for g in px.GRADES))
for g, row in zip(px.GRADES, confusion.matrix):
    print(f"  {g} " + "  ".join(f"{v:4d}" for v in row))
print(
    f"\nmapped equal {confusion.equal_fraction:.1%}, riskier "
    f"{confusion.riskier_fraction:.1%}, safer {confusion.safer_fraction:.1%}; "
    f"critical underestimations: {confusion.critical_underestimation}"
)

# The published interval table can be used directly instead of calibrating.
fixed = px.load_fixed_intervals()
print("\nfixed-interval grades for probes 0.05..0.30:",
      [px.assign_grade(p, fixed) for p in (0.05, 0.10, 0.15, 0.22, 0.26, 0.30)])

# Expert alignment: the bundled survey has four analysts distributing 100
# points each over the ten grouped features.
survey = px.load_survey()
attribution = px.global_importance(
    model,
    validation.subset(np.arange(15)),
    px.AttributionConfig(
        background=px.sample_background(train, 80, seed=5),
        group_map=px.group_countries(train.columns),
    ),
)
alignment = px.align(survey, attribution)
print(f"\nexpert ranking: {alignment.expert_ranking}")
print(f"model ranking:  {alignment.model_ranking}")
print(
    f"spearman {alignment.spearman:+.4f}, kendall {alignment.kendall:+.4f}, "
    f"top-3 overlap {alignment.top3_overlap:.2f}, top-5 overlap {alignment.top5_overlap:.2f}"
)
print("\nlargest share disagreements (expert share - model share):")
for feature, delta in sorted(alignment.delta.items(), key=lambda t: abs(t[1]), reverse=True)[:4]:
    print(f"  {feature:18s} {delta:+.4f}")
