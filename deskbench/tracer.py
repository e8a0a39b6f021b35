"""Outside-in span recorder for one pdxplain process.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with
a timing wrapper wherever a pdxplain module binds it, so calls the pipeline
makes into a module are timed without touching the package's source. One
span per call records name, start, end, parent span and run id, plus counts
read from the call's arguments and result. Spans stay in memory until
``write``, which puts them outside the run directory: the run directory is
the report bundle that determinism checks hash.

``layer_metrics`` turns the spans of one run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np


def _tree_nodes(root) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        if node.left is not None:
            stack.extend((node.left, node.right))
    return n


def _path_bytes(args, kwargs) -> dict:
    path = kwargs.get("path", args[-1] if args else None)
    return {"bytes": os.path.getsize(path)}


def _global_importance_counts(args, kwargs, report) -> dict:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    n_inst, n_players = report.phi.shape
    residual = np.abs(report.phi.sum(axis=1) + report.base_value - report.predictions)
    return {
        "model_rows": n_inst * 2**n_players * config.background.shape[0],
        "efficiency_residual_max": float(residual.max()),
    }


def _resample_counts(args, kwargs, result) -> dict:
    train = kwargs.get("train", args[0] if args else None)
    return {
        "minority_rows": int((train.y == 1).sum()),
        "synthetic_rows": int(result.parents.shape[0]),
    }


def _neighbors_counts(args, kwargs, result) -> dict:
    X_min = np.asarray(kwargs.get("X_min", args[0] if args else None))
    n, d = X_min.shape
    # The n x n x d float64 difference tensor of the exact-distance form.
    return {"scratch_bytes": n * n * d * 8}


# (module, public name, observer(args, kwargs, result) -> counts or None)
TARGETS = [
    ("pipeline", "run_pipeline", None),
    ("synthgen", "generate_with_oracle", lambda a, k, r: {"records": len(r[0])}),
    ("dataprep", "write_records", None),
    ("dataprep", "read_records", lambda a, k, r: _path_bytes(a, k)),
    ("dataprep", "prepare", lambda a, k, r: {"feature_rows": r.features.n}),
    ("dataprep", "FeatureMatrix.to_csv", None),
    ("dataprep", "FeatureMatrix.from_csv", lambda a, k, r: _path_bytes(a, k)),
    ("smote", "resample", _resample_counts),
    ("smote", "minority_neighbors", _neighbors_counts),
    ("trees", "fit_tree", lambda a, k, r: {"nodes": _tree_nodes(r)}),
    ("trees", "predict_many", lambda a, k, r: {"rows": int(np.shape(a[1] if len(a) > 1 else k["X"])[0])}),
    ("models", "fit", None),
    ("models", "predict_proba", None),
    ("models", "save_model", None),
    ("models", "load_model", None),
    ("metrics", "evaluate", None),
    ("shapley", "global_importance", _global_importance_counts),
    ("grading", "calibrate", None),
    ("grading", "assign_grades", None),
    ("grading", "grade_confusion", None),
    ("grading", "load_fixed_intervals", None),
    ("alignment", "load_survey", None),
    ("alignment", "align", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id, "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span["counts"] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import pdxplain  # noqa: F401  (loads every module the targets live in)

        modules = [m for n, m in list(sys.modules.items()) if n == "pdxplain" or n.startswith("pdxplain.")]
        for mod_name, attr, observe in TARGETS:
            name = f"{mod_name}.{attr}"
            module = sys.modules.get(f"pdxplain.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, method):
                print(f"trace: {name} not found; its layer metrics read 0", file=sys.stderr)
                continue
            if owner_name:  # a method: replace it on the class
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self.wrap(name, raw.__func__, observe)))
                else:
                    setattr(owner, method, self.wrap(name, raw, observe))
                continue
            original = getattr(owner, method)
            wrapped = self.wrap(name, original, observe)
            for m in modules:  # rebind every `from .x import f` copy as well
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _outermost_total(spans, by_id, names) -> float:
    """Summed duration of the spans named in ``names`` that no other span
    of those names encloses (so recursion is not counted twice)."""
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            total += s["end"] - s["start"]
    return total


def _count(spans, name, key):
    return sum(s["counts"][key] for s in spans if s["name"] == name and "counts" in s)


MIB = 1024 * 1024


def layer_metrics(all_spans: list[dict], run: str) -> dict:
    """Per-layer metrics of run ``run``: times in s, sizes in MiB, counts."""
    spans = [s for s in all_spans if s["run"] == run]
    by_id = {s["id"]: s for s in spans}

    def t(*names):
        return _outermost_total(spans, by_id, set(names))

    roots = [s for s in spans if s["name"] == "pipeline.run_pipeline" and s["parent"] is None]
    if len(roots) != 1:
        raise ValueError(f"run {run!r} has {len(roots)} pipeline spans, expected 1")
    root = roots[0]
    children = sorted((s["start"], s["end"]) for s in spans if s["parent"] == root["id"])
    covered, reach = 0.0, root["start"]
    for start, end in children:  # union of the children's intervals
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    explain_s = t("shapley.global_importance")
    model_rows = _count(spans, "shapley.global_importance", "model_rows")
    residuals = [s["counts"]["efficiency_residual_max"] for s in spans
                 if s["name"] == "shapley.global_importance" and "counts" in s]
    return {
        "pipeline.run_s": root["end"] - root["start"],
        "pipeline.self_s": root["end"] - root["start"] - covered,
        "synthgen.generate_s": t("synthgen.generate_with_oracle"),
        "synthgen.records": _count(spans, "synthgen.generate_with_oracle", "records"),
        "dataprep.prepare_s": t("dataprep.prepare"),
        "dataprep.feature_rows": _count(spans, "dataprep.prepare", "feature_rows"),
        "dataprep.csv_write_s": t("dataprep.write_records", "dataprep.FeatureMatrix.to_csv"),
        "dataprep.csv_read_s": t("dataprep.read_records", "dataprep.FeatureMatrix.from_csv"),
        "dataprep.csv_read_mb": (_count(spans, "dataprep.read_records", "bytes")
                                 + _count(spans, "dataprep.FeatureMatrix.from_csv", "bytes")) / MIB,
        "smote.resample_s": t("smote.resample"),
        "smote.neighbors_s": t("smote.minority_neighbors"),
        "smote.minority_rows": _count(spans, "smote.resample", "minority_rows"),
        "smote.synthetic_rows": _count(spans, "smote.resample", "synthetic_rows"),
        "smote.neighbor_scratch_mb": max(
            [s["counts"]["scratch_bytes"] for s in spans
             if s["name"] == "smote.minority_neighbors" and "counts" in s], default=0) / MIB,
        "trees.fit_tree_s": t("trees.fit_tree"),
        "trees.fit_tree_calls": sum(1 for s in spans if s["name"] == "trees.fit_tree"),
        "trees.nodes": _count(spans, "trees.fit_tree", "nodes"),
        "trees.predict_many_s": t("trees.predict_many"),
        "trees.routed_row_trees": _count(spans, "trees.predict_many", "rows"),
        "models.fit_s": t("models.fit"),
        "models.predict_proba_s": t("models.predict_proba"),
        "models.io_s": t("models.save_model", "models.load_model"),
        "metrics.evaluate_s": t("metrics.evaluate"),
        "shapley.explain_s": explain_s,
        "shapley.model_rows": model_rows,
        "shapley.model_rows_per_s": model_rows / explain_s if explain_s > 0 else 0.0,
        "shapley.efficiency_residual_max": max(residuals, default=0.0),
        "grading.map_s": t("grading.calibrate", "grading.assign_grades",
                           "grading.grade_confusion", "grading.load_fixed_intervals"),
        "alignment.align_s": t("alignment.load_survey", "alignment.align"),
    }
