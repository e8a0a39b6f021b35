"""Exact Shapley attribution on the probability output.

The value of a coalition S is the interventional expectation over a
background sample: features in S come from the explained instance, the rest
from each background row in turn. All 2^M coalition values are computed per
instance, so the resulting attributions satisfy the Shapley axioms to float
precision; this is affordable because the grouped player count of this
pipeline is small.

A tree ensemble's coalition values are read from its trees (``_TreeGame``):
one walk per (tree, background row) finds the leaves its hybrid rows can
reach and the coalitions that reach each, and the ensemble's link is applied
per background row before the mean, so the values are exact on the
probability output, not on the margin. Any other model goes through the
enumerator (``_coalition_values``), which evaluates every hybrid row with
the model. Its rows are built column-major: a block of coalitions is a
(d, coalitions, n_background) array handed to the model as its (rows, d)
transposed view, in the same row order.

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
from .forks import fork_map
from .models import LINKS, Model, TreeEnsembleModel, predict_proba
from .trees import tree_to_dict


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


# Largest scratch array, in elements, that explaining one instance
# allocates: a block of hybrid rows, a background chunk's coalition table or
# walk, or a chunk of expanded leaf cells.
SCRATCH_ELEMENTS = 4_000_000


def _coalition_values(model: Model, instance: np.ndarray, members, bg: np.ndarray) -> np.ndarray:
    """v over all 2^M coalitions, evaluated in batched model calls."""
    M = len(members)
    n_bg, d = bg.shape
    total = 2**M
    out = np.empty(total)
    block = max(1, SCRATCH_ELEMENTS // (n_bg * d))
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


class _TreeGame:
    """v over all 2^M coalitions of a tree ensemble, read from its trees.

    Route the hybrid row of coalition S and background row z down one tree.
    Where x and z go the same way the path does not depend on S; where they
    part at a split on player p, the row follows x iff p is in S. So the row
    reaches a leaf iff S holds every player of A (splits where the path
    follows x only) and none of B (splits where it follows z only), the
    observation behind interventional TreeSHAP (Lundberg et al. 2020, Nature
    Machine Intelligence 2:56-67). One walk per (tree, background row) finds
    every reachable leaf as a cell (b, A, B, w_t * leaf).

    By inclusion-exclusion, [S & B = 0] = sum over C <= B of (-1)^|C| [C <= S],
    so each cell becomes terms at A | C, and one subset-sum (zeta) transform
    over the players gives F_b(S) - base for every coalition. The link is
    applied per background row before the mean, as in the enumerator.
    """

    def __init__(self, model: TreeEnsembleModel, members, bg: np.ndarray):
        player = np.empty(bg.shape[1], dtype=np.int64)
        for i, cols in enumerate(members):
            player[cols] = i
        # Every tree in preorder, concatenated; leaves hold w_t * leaf value.
        feature, threshold, left, right, value, roots = [], [], [], [], [], []
        for tree, w in zip(model.trees, model.weights):
            offset = len(feature)
            roots.append(offset)
            for nd in tree_to_dict(tree)["nodes"]:
                leaf = "value" in nd
                feature.append(-1 if leaf else nd["feature"])
                threshold.append(0.0 if leaf else nd["threshold"])
                left.append(0 if leaf else offset + nd["left"])
                right.append(0 if leaf else offset + nd["right"])
                value.append(w * nd["value"] if leaf else 0.0)
        feature = np.asarray(feature, dtype=np.int64)
        self.leaf = feature < 0
        self.feature = np.maximum(feature, 0)  # leaves read column 0 and ignore it
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)
        self.bit = np.where(self.leaf, 0, np.left_shift(1, player[self.feature]))
        self.roots = np.asarray(roots, dtype=np.int64)
        self.M = len(members)
        self.model = model
        self.n_bg = bg.shape[0]
        # Go-left flags per (background row, node), compared row by row so
        # that no (rows, nodes) float array is made, in chunks of rows whose
        # coalition table and walk (at most one state per row and node) fit
        # the cap.
        rows = max(1, SCRATCH_ELEMENTS // max(2**self.M, self.feature.size))
        self.z_left = [
            np.stack([z[self.feature] < self.threshold for z in bg[lo : lo + rows]])
            for lo in range(0, self.n_bg, rows)
        ]

    def __call__(self, instance: np.ndarray) -> np.ndarray:
        x_left = instance[self.feature] < self.threshold
        size = 2**self.M
        total = np.zeros(size)
        for z_left in self.z_left:
            n = z_left.shape[0]
            table = np.zeros(n * size)
            for key, val in _expand(*self._walk(x_left, z_left), self.M):
                table += np.bincount(key, weights=val, minlength=n * size)
            table = table.reshape(n, size)
            for i in range(self.M):  # table[b, S] becomes the sum over U <= S
                pairs = table.reshape(n, -1, 2, 1 << i)
                pairs[:, :, 1] += pairs[:, :, 0]
            total += LINKS[self.model.kind](self.model.base + table, self.model.weights).sum(axis=0)
        return total / self.n_bg

    def _walk(self, x_left: np.ndarray, z_left: np.ndarray):
        """Leaf cells (b << M | A, B, w_t * leaf) of every tree and every row
        b of the chunk, one numpy step per depth level."""
        n, nodes = z_left.shape
        z_left = z_left.ravel()
        b = np.repeat(np.arange(n), self.roots.size)
        node = np.tile(self.roots, n)
        A = np.zeros(node.size, dtype=np.int64)
        B = np.zeros(node.size, dtype=np.int64)
        cells = []
        while True:
            done = self.leaf[node]
            cells.append(((b[done] << self.M) | A[done], B[done], self.value[node[done]]))
            going = ~done
            b, node, A, B = b[going], node[going], A[going], B[going]
            if not node.size:
                break
            bit = self.bit[node]
            x_way = x_left[node]
            part = x_way != z_left[b * nodes + node]  # x and z go different ways
            way = x_way ^ (part & ((B & bit) != 0))  # the player is in B: follow z
            fork = part & (((A | B) & bit) == 0)  # in neither: x with A + p, z with B + p
            f = np.flatnonzero(fork)
            b = np.concatenate([b, b[f]])
            node = np.concatenate([
                np.where(way, self.left[node], self.right[node]),
                np.where(way[f], self.right[node[f]], self.left[node[f]]),
            ])
            A = np.concatenate([A | np.where(fork, bit, 0), A[f]])
            B = np.concatenate([B, B[f] | bit[f]])
        key, B, val = (np.concatenate(c) for c in zip(*cells))
        return key, B, val


def _expand(key: np.ndarray, B: np.ndarray, val: np.ndarray, M: int):
    """Yield the cells' subset terms (key | C, (-1)^|C| * val) for every
    C <= B, in runs of whole cells of at most SCRATCH_ELEMENTS terms."""
    count = np.zeros(B.size, dtype=np.int64)
    for i in range(M):
        count += (B >> i) & 1
    ends = np.cumsum(np.left_shift(1, count))  # a cell has 2^|B| terms
    start = 0
    while start < B.size:
        reached = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, reached + SCRATCH_ELEMENTS, side="right")))
        k, b, v = key[start:stop], B[start:stop], val[start:stop]
        for i in range(M):
            has = np.flatnonzero((b >> i) & 1)
            if has.size:
                k = np.concatenate([k, k[has] | (1 << i)])
                b = np.concatenate([b, b[has]])
                v = np.concatenate([v, -v[has]])
        yield k, v
        start = stop


def _game(model: Model, config: AttributionConfig):
    """(player names, instance -> v over all 2^M coalitions). A tree
    ensemble is read from its trees, once, here; other models go through
    the enumerator."""
    names, members = build_players(model.feature_names, config.group_map)
    if len(names) > config.max_features:
        raise ValueError(
            f"{len(names)} players exceed max_features={config.max_features}; group "
            f"columns or reduce the feature set before explaining"
        )
    if config.background.shape[1] != len(model.feature_names):
        raise ValueError("background columns do not match the model's features")
    if isinstance(model, TreeEnsembleModel):
        return names, _TreeGame(model, members, config.background)
    return names, lambda x: _coalition_values(model, x, members, config.background)


def _shapley_from_values(v: np.ndarray, M: int) -> np.ndarray:
    """Shapley vector of the game whose coalition S (bit i = player i) has
    value v[S]."""
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


def shapley_values(model: Model, instance, config: AttributionConfig) -> np.ndarray:
    """Exact Shapley vector of the explained instance, one value per player."""
    names, game = _game(model, config)
    instance = np.asarray(instance, dtype=float)
    if config.background.shape[1] != instance.size:
        raise ValueError("background columns do not match the instance")
    return _shapley_from_values(game(instance), len(names))


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
            fh.write(json.dumps(self.to_dict(), sort_keys=True, allow_nan=False))

    @classmethod
    def load(cls, path) -> "AttributionReport":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def global_importance(model: Model, instances, config: AttributionConfig) -> AttributionReport:
    """Explain a batch of instances and rank players by mean |phi|."""
    X = instances.X if isinstance(instances, FeatureMatrix) else np.asarray(instances, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("need at least one instance to explain")
    names, game = _game(model, config)
    base = float(predict_proba(model, config.background).mean())
    preds = predict_proba(model, X)
    def solve(x):
        return _shapley_from_values(game(x), len(names))
    phi = np.stack(fork_map(solve, X))  # the game is built once, above, and fork_map's child inherits it
    return AttributionReport(players=names, base_value=base, phi=phi, predictions=preds)
