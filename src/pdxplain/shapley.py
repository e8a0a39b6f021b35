"""Exact model-agnostic Shapley attribution on the probability output.

The value of a coalition S is the interventional expectation over a
background sample: features in S come from the explained instance, the rest
from each background row in turn. All 2^M coalition values are enumerated
and cached per instance, so the resulting attributions satisfy the Shapley
axioms to float precision; this is affordable because the grouped player
count of this pipeline is small.

The hybrid rows are built column-major: a block of coalitions is a
(d, coalitions, n_background) array handed to the model as its (rows, d)
transposed view, in the same row order. Tree routing gathers one feature of
many rows per node, and in this layout that feature is one contiguous column
instead of a read at a stride of d values.

One-hot country columns can be collapsed into a single "country_code"
player, which is what the expert-alignment comparison expects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dataprep import FeatureMatrix
from .models import Model, predict_proba


@dataclass
class AttributionConfig:
    background: np.ndarray  # (n_background, n_columns) reference rows
    max_features: int = 20
    group_map: Optional[dict[str, list[str]]] = None  # player -> column names

    def __post_init__(self):
        self.background = np.asarray(self.background, dtype=float)
        if self.background.ndim != 2 or self.background.shape[0] < 1:
            raise ValueError("background must be a non-empty 2-d array")


def sample_background(fm: FeatureMatrix, size: int = 100, seed: int = 0) -> np.ndarray:
    """Seeded background sample, conventionally from the training split."""
    rng = np.random.default_rng(seed)
    take = min(size, fm.n)
    idx = rng.choice(fm.n, size=take, replace=False)
    return fm.X[np.sort(idx)]


def group_countries(columns: Sequence[str]) -> dict[str, list[str]]:
    """Group map collapsing the one-hot country columns into one player."""
    country_cols = [c for c in columns if c.startswith("country_")]
    if not country_cols:
        raise ValueError("no country_* columns to group")
    return {"country_code": country_cols}


def build_players(columns: Sequence[str], group_map=None) -> tuple[list[str], list[np.ndarray]]:
    """Resolve (player names, per-player column index arrays) in column order;
    a group sits at the position of its first member column."""
    columns = list(columns)
    if group_map is None:
        group_map = {}
    col_to_group: dict[str, str] = {}
    for player, cols in group_map.items():
        for c in cols:
            if c not in columns:
                raise ValueError(f"group {player!r} references unknown column {c!r}")
            if c in col_to_group:
                raise ValueError(f"column {c!r} appears in two groups")
            col_to_group[c] = player

    names: list[str] = []
    members: list[list[int]] = []
    seen: dict[str, int] = {}
    for j, c in enumerate(columns):
        player = col_to_group.get(c, c)
        if player in seen:
            members[seen[player]].append(j)
        else:
            seen[player] = len(names)
            names.append(player)
            members.append([j])
    return names, [np.asarray(m, dtype=int) for m in members]


def value_function(model: Model, instance, subset, background) -> float:
    """v(S): mean model output over the background with the subset's player
    columns replaced by the instance values.

    ``background`` may be an AttributionConfig (grouping honored) or a plain
    array of reference rows.
    """
    config = (
        background
        if isinstance(background, AttributionConfig)
        else AttributionConfig(background=background)
    )
    names, members = build_players(model.feature_names, config.group_map)
    instance = np.asarray(instance, dtype=float)
    bg = config.background
    if bg.shape[1] != instance.size:
        raise ValueError("background columns do not match the instance")
    X = bg.copy()
    for p in subset:
        i = p if isinstance(p, (int, np.integer)) else names.index(p)
        X[:, members[i]] = instance[members[i]]
    return float(predict_proba(model, X).mean())


def _coalition_values(model: Model, instance: np.ndarray, members, bg: np.ndarray) -> np.ndarray:
    """v over all 2^M coalitions, evaluated in batched model calls."""
    M = len(members)
    n_bg, d = bg.shape
    total = 2**M
    out = np.empty(total)
    block = max(1, 4_000_000 // (n_bg * d))  # cap scratch memory
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total))
        big = np.empty((d, codes.size, n_bg))
        big[:] = bg.T[:, None, :]
        for i, cols in enumerate(members):
            on = np.flatnonzero((codes >> i) & 1)
            if on.size:
                big[np.ix_(cols, on)] = instance[cols, None, None]
        # Row c * n_bg + b is background row b under coalition codes[c].
        preds = predict_proba(model, big.reshape(d, -1).T)
        out[start : start + codes.size] = preds.reshape(codes.size, n_bg).mean(axis=1)
    return out


def shapley_values(model: Model, instance, config: AttributionConfig) -> np.ndarray:
    """Exact Shapley vector of the explained instance, one value per player."""
    names, members = build_players(model.feature_names, config.group_map)
    M = len(names)
    if M > config.max_features:
        raise ValueError(
            f"{M} players exceed max_features={config.max_features}; group "
            f"columns or reduce the feature set before explaining"
        )
    instance = np.asarray(instance, dtype=float)
    if config.background.shape[1] != instance.size:
        raise ValueError("background columns do not match the instance")

    v = _coalition_values(model, instance, members, config.background)
    sizes = np.zeros(2**M, dtype=int)
    for i in range(M):
        sizes += (np.arange(2**M) >> i) & 1
    fact = [math.factorial(k) for k in range(M + 1)]
    weight = np.array([fact[s] * fact[M - s - 1] / fact[M] for s in range(M)])

    phi = np.zeros(M)
    all_masks = np.arange(2**M)
    for i in range(M):
        without = all_masks[(all_masks >> i) & 1 == 0]
        gains = v[without | (1 << i)] - v[without]
        phi[i] = float(weight[sizes[without]] @ gains)
    return phi


@dataclass
class AttributionReport:
    players: list[str]
    base_value: float
    phi: np.ndarray  # (n_instances, n_players)
    predictions: np.ndarray  # model output per explained instance
    global_importance: np.ndarray = field(init=False)
    ranking: list[str] = field(init=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float).reshape(-1, len(self.players))
        self.predictions = np.asarray(self.predictions, dtype=float)
        self.global_importance = np.abs(self.phi).mean(axis=0)
        # descending importance; ties break by player name
        order = sorted(
            range(len(self.players)),
            key=lambda i: (-self.global_importance[i], self.players[i]),
        )
        self.ranking = [self.players[i] for i in order]

    def importance_by_player(self) -> dict[str, float]:
        return {p: float(v) for p, v in zip(self.players, self.global_importance)}

    def to_dict(self) -> dict:
        return {
            "players": list(self.players),
            "base_value": float(self.base_value),
            "phi": [[float(v) for v in row] for row in self.phi],
            "predictions": [float(v) for v in self.predictions],
            "global_importance": [float(v) for v in self.global_importance],
            "ranking": list(self.ranking),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AttributionReport":
        return cls(
            players=list(d["players"]),
            base_value=float(d["base_value"]),
            phi=np.asarray(d["phi"], dtype=float),
            predictions=np.asarray(d["predictions"], dtype=float),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "AttributionReport":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def global_importance(model: Model, instances, config: AttributionConfig) -> AttributionReport:
    """Explain a batch of instances and rank players by mean |phi|."""
    X = instances.X if isinstance(instances, FeatureMatrix) else np.asarray(instances, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("need at least one instance to explain")
    base = float(predict_proba(model, config.background).mean())
    preds = predict_proba(model, X)
    phi = np.stack([shapley_values(model, X[i], config) for i in range(X.shape[0])])
    names, _ = build_players(model.feature_names, config.group_map)
    return AttributionReport(players=names, base_value=base, phi=phi, predictions=preds)
