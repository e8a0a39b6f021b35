"""The four probability-of-default classifiers behind one interface.

Every model exposes fit + predict_proba; probabilities are for the default
class (label 1). Logistic regression trains by deterministic full-batch
gradient descent. The three tree ensembles are one ``TreeEnsembleModel``,
``link(base + sum_t w_t * tree_t(x))``, and differ only in how they fit and
in their link:

- AdaBoost reweights gini stumps; each stump's leaves hold its +1/-1 vote,
  its weight is its alpha, and the link is the vote share
  ``0.5 * (1 + F / sum(w))``.
- The random forest fits bootstrap trees whose leaves hold class shares;
  weights are 1 and the link averages, ``F / T``. Each tree is fit on its
  distinct bootstrap rows weighted by their bootstrap counts, with its column
  order filtered from one sort of X per fit; integer count sums are exact,
  so the trees are those of the rows repeated.
- Boosting runs second-order rounds on the logistic loss with L2 leaf
  regularization and a minimum split gain; weights are the learning rate,
  ``base`` is the log-odds prior and the link is the sigmoid.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dataprep import FeatureMatrix
from .trees import (
    GINI,
    SECOND_ORDER,
    TreeConfig,
    TreeNode,
    fit_tree,
    predict_many,
    restrict_order,
    sort_columns,
    tree_from_dict,
    tree_to_dict,
)

MODEL_KINDS = ("lr", "adaboost", "rf", "gbt")


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def logistic_loss(z, y, weights: Optional[np.ndarray] = None, l2: float = 0.0):
    """Mean cross-entropy of logits z against 0/1 labels, plus an optional
    L2 penalty on the weight vector."""
    data = np.mean(np.logaddexp(0.0, z) - y * z)
    if weights is not None and l2 > 0:
        data = data + 0.5 * l2 * float(weights @ weights)
    return float(data)


@dataclass
class LRParams:
    learning_rate: float = 0.5
    epochs: int = 400
    l2: float = 1e-3

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 0 or self.l2 < 0:
            raise ValueError("invalid logistic regression hyperparameters")


@dataclass
class AdaBoostParams:
    learning_rate: float = 0.8
    n_estimators: int = 100
    max_depth: int = 1  # stumps

    def __post_init__(self):
        if self.learning_rate <= 0 or self.n_estimators < 1 or self.max_depth < 1:
            raise ValueError("invalid AdaBoost hyperparameters")


@dataclass
class RFParams:
    n_estimators: int = 1500
    max_depth: int = 16
    bootstrap_fraction: float = 1.0

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_depth < 1 or not 0 < self.bootstrap_fraction <= 1:
            raise ValueError("invalid random forest hyperparameters")


@dataclass
class GBTParams:
    learning_rate: float = 0.1
    n_estimators: int = 100
    max_depth: int = 10
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    gamma: float = 0.7
    lam: float = 1.0
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0 or self.n_estimators < 0 or self.max_depth < 1:
            raise ValueError("invalid boosted-tree hyperparameters")
        if not 0 < self.subsample <= 1 or not 0 < self.colsample_bytree <= 1:
            raise ValueError("subsample fractions must be in (0, 1]")
        if self.gamma < 0 or self.lam < 0 or self.min_samples_leaf < 1:
            raise ValueError("gamma and lam must be >= 0, min_samples_leaf >= 1")


PARAM_CLASSES = {"lr": LRParams, "adaboost": AdaBoostParams, "rf": RFParams, "gbt": GBTParams}


class LogisticRegressionModel:
    kind = "lr"

    def __init__(self, weights, bias, params: LRParams, feature_names, seed=0):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)
        self.params = params
        self.feature_names = list(feature_names)
        self.seed = seed

    def predict_proba_array(self, X: np.ndarray) -> np.ndarray:
        # BLAS sums a column-major product in another order; C-ordered rows
        # keep the probabilities bit-identical for any input layout.
        return sigmoid(np.ascontiguousarray(X) @ self.weights + self.bias)

    def parameters(self) -> dict:
        return {"weights": [float(v) for v in self.weights], "bias": self.bias}


def _vote_share(F, weights):
    total = float(weights.sum())
    if total == 0.0:
        return np.full(F.shape, 0.5)
    # Normalized vote margin in [-1, 1], mapped linearly onto [0, 1] so the
    # 0.5 threshold coincides with the majority vote.
    return 0.5 * (1.0 + F / total)


# kind -> link(F, weights) from the ensemble's summed score to a probability
LINKS = {
    "adaboost": _vote_share,
    "rf": lambda F, weights: F / len(weights),
    "gbt": lambda F, weights: sigmoid(F),
}


class TreeEnsembleModel:
    """``link(base + sum_t w_t * tree_t(x))`` with the link of ``kind``."""

    def __init__(self, kind, trees, weights, base, params, feature_names, seed=0, training_loss=()):
        self.kind = kind
        self.trees: list[TreeNode] = list(trees)
        self.weights = np.asarray(weights, dtype=float)
        self.base = float(base)
        self.params = params
        self.feature_names = list(feature_names)
        self.seed = seed
        self.training_loss = list(training_loss)

    def predict_proba_array(self, X: np.ndarray) -> np.ndarray:
        F = np.full(X.shape[0], self.base)
        for tree, w in zip(self.trees, self.weights):
            F += w * predict_many(tree, X)
        return LINKS[self.kind](F, self.weights)

    def parameters(self) -> dict:
        return {
            "base": self.base,
            "weights": [float(w) for w in self.weights],
            "trees": [tree_to_dict(t) for t in self.trees],
            "training_loss": [float(v) for v in self.training_loss],
        }


Model = LogisticRegressionModel | TreeEnsembleModel


def _as_xy(data):
    if isinstance(data, FeatureMatrix):
        return data.X, data.y, list(data.columns)
    raise TypeError("fit expects a FeatureMatrix")


def _check_binary(y):
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("training labels contain a single class")
    if not set(classes.tolist()) <= {0, 1}:
        raise ValueError("labels must be 0/1")


def fit(kind: str, train: FeatureMatrix, params=None, seed: int = 0) -> Model:
    """Train one of the four model kinds on a labeled feature matrix."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    X, y, columns = _as_xy(train)
    _check_binary(y)
    if params is None:
        params = PARAM_CLASSES[kind]()
    elif isinstance(params, dict):
        params = PARAM_CLASSES[kind](**params)

    if kind == "lr":
        return _fit_lr(X, y, params, columns, seed)
    if kind == "adaboost":
        return _fit_adaboost(X, y, params, columns, seed)
    if kind == "rf":
        return _fit_rf(X, y, params, columns, seed)
    return _fit_gbt(X, y, params, columns, seed)


def lr_gradient(weights, bias, X, y, l2):
    """Analytic gradient of the L2-regularized logistic loss (bias excluded
    from the penalty)."""
    p = sigmoid(X @ weights + bias)
    gw = X.T @ (p - y) / X.shape[0] + l2 * weights
    gb = float(np.mean(p - y))
    return gw, gb


def _fit_lr(X, y, params: LRParams, columns, seed):
    w = np.zeros(X.shape[1])
    b = 0.0
    with np.errstate(over="ignore"):  # divergence is caught, not warned
        for epoch in range(params.epochs):
            gw, gb = lr_gradient(w, b, X, y, params.l2)
            w -= params.learning_rate * gw
            b -= params.learning_rate * gb
            if not (np.isfinite(w).all() and np.isfinite(b)):
                raise ValueError(f"non-finite parameters at epoch {epoch}")
    return LogisticRegressionModel(w, b, params, columns, seed)


def _fit_adaboost(X, y, params: AdaBoostParams, columns, seed):
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    stumps, alphas = [], []
    cfg = TreeConfig(max_depth=params.max_depth, criterion=GINI)
    order = sort_columns(X)
    for _ in range(params.n_estimators):
        stump = fit_tree(X, y, cfg, sample_weight=w, order=order)
        pred = (predict_many(stump, X) >= 0.5).astype(float)
        wrong = pred != y
        err = float(w[wrong].sum() / w.sum())
        if err >= 0.5:
            break
        err = min(max(err, 1e-12), 1 - 1e-12)
        alpha = params.learning_rate * np.log((1 - err) / err)
        stumps.append(_to_votes(stump))
        alphas.append(alpha)
        if err <= 1e-12:
            break
        w = w * np.exp(alpha * wrong)
        w /= w.sum()
    return TreeEnsembleModel("adaboost", stumps, alphas, 0.0, params, columns, seed)


def _to_votes(node: TreeNode) -> TreeNode:
    """Turn each leaf's default share into its +1/-1 vote, in place."""
    if node.is_leaf:
        node.value = 1.0 if node.value >= 0.5 else -1.0
    else:
        _to_votes(node.left)
        _to_votes(node.right)
    return node


def _fit_rf(X, y, params: RFParams, columns, seed):
    n, d = X.shape
    frac = np.sqrt(d) / d  # per-split subsampling of ~sqrt(M) features
    n_boot = max(1, int(round(params.bootstrap_fraction * n)))
    order = sort_columns(X)
    trees = []
    for child in np.random.SeedSequence(seed).spawn(params.n_estimators):
        rng = np.random.default_rng(child)
        counts = np.bincount(rng.integers(0, n, size=n_boot), minlength=n)
        rows = np.flatnonzero(counts)
        tree_seed = int(child.generate_state(1)[0])
        cfg = TreeConfig(
            max_depth=params.max_depth,
            criterion=GINI,
            feature_subsample_fraction=frac,
            seed=tree_seed,
        )
        trees.append(fit_tree(X[rows], y[rows], cfg, order=restrict_order(order, rows), counts=counts[rows]))
    return TreeEnsembleModel("rf", trees, np.ones(len(trees)), 0.0, params, columns, seed)


def _fit_gbt(X, y, params: GBTParams, columns, seed):
    n, d = X.shape
    p_bar = float(y.mean())
    base = float(np.log(p_bar / (1.0 - p_bar)))
    F = np.full(n, base)
    rng = np.random.default_rng(seed)
    trees, losses = [], []
    order = sort_columns(X)  # one sort per fit; a subsampled round filters it
    cfg = TreeConfig(
        max_depth=params.max_depth,
        min_samples_leaf=params.min_samples_leaf,
        criterion=SECOND_ORDER,
        lam=params.lam,
        gamma=params.gamma,
    )
    for rnd in range(params.n_estimators):
        p = sigmoid(F)
        g = p - y
        h = p * (1.0 - p)
        rows = None
        if params.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(1, int(round(params.subsample * n))), replace=False))
        feats = None
        if params.colsample_bytree < 1.0:
            k = max(1, int(round(params.colsample_bytree * d)))
            feats = np.sort(rng.choice(d, size=k, replace=False))
        if rows is None:
            tree = fit_tree(X, (g, h), cfg, allowed_features=feats, order=order)
        else:
            tree = fit_tree(X[rows], (g[rows], h[rows]), cfg, allowed_features=feats,
                            order=restrict_order(order, rows))
        F = F + params.learning_rate * predict_many(tree, X)
        loss = logistic_loss(F, y)
        if not np.isfinite(loss):
            raise ValueError(f"non-finite training loss at boosting round {rnd}")
        trees.append(tree)
        losses.append(loss)
    return TreeEnsembleModel(
        "gbt", trees, [params.learning_rate] * len(trees), base, params, columns, seed, losses
    )


def predict_proba(model: Model, data) -> np.ndarray:
    """Probability of default per row. A FeatureMatrix must carry exactly
    the columns the model was trained on."""
    if isinstance(data, FeatureMatrix):
        if list(data.columns) != model.feature_names:
            raise ValueError(
                f"feature columns {data.columns} do not match the model's "
                f"training columns {model.feature_names}"
            )
        X = data.X
    else:
        X = np.asarray(data, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(model.feature_names):
            raise ValueError("feature width does not match the model")
    return model.predict_proba_array(X)


def classify(model: Model, data, threshold: float = 0.5) -> np.ndarray:
    """Hard labels: 1 iff probability >= threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return (predict_proba(model, data) >= threshold).astype(int)


def save_model(model: Model, path) -> None:
    doc = {
        "kind": model.kind,
        "hyperparameters": asdict(model.params),
        "feature_names": model.feature_names,
        "seed": model.seed,
        "parameters": model.parameters(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, allow_nan=False))


def load_model(path) -> Model:
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc["kind"]
    params = PARAM_CLASSES[kind](**doc["hyperparameters"])
    args = (params, doc["feature_names"], doc["seed"])
    p = doc["parameters"]
    if kind == "lr":
        return LogisticRegressionModel(p["weights"], p["bias"], *args)
    missing = {"base", "weights", "trees", "training_loss"} - set(p)
    if missing:
        raise ValueError(f"{path} is an older {kind} model file (no {sorted(missing)}); retrain it")
    trees = [tree_from_dict(t) for t in p["trees"]]
    return TreeEnsembleModel(kind, trees, p["weights"], p["base"], *args, p["training_loss"])
