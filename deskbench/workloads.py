"""Run configs of the three desk-run workloads, generated from the bundled
demo config so that every workload follows the package's defaults.

The workload seed replaces the config's global ``seed``; each stage seed is
derived from it by ``RunConfig.from_dict``, so the program only ever sees a
run config and never the benchmark's arguments.
"""

from __future__ import annotations

import json
from pathlib import Path

NAMES = ("demo_gbt", "forest_rf", "panel_lr")


def demo_config(src: Path) -> dict:
    with open(src / "pdxplain" / "data" / "demo_config.json") as fh:
        return json.load(fh)


def default_seed(src: Path) -> int:
    """The seed the bundled demo config carries; references are captured at it."""
    return int(demo_config(src)["seed"])


def config_doc(name: str, seed: int, src: Path, smoke: bool = False) -> dict:
    """Run config of workload ``name`` at ``seed``.

    ``smoke`` shrinks the panel, the ensembles and the explained set so that
    every workload's code path runs in a second or two; the smoke test of
    the benchmark uses it, the measured runs never do.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    doc = demo_config(src)
    if name == "forest_rf":
        # 40 trees instead of the default 1,500: the work per tree is
        # unchanged and a cold run stays near 20 s.
        doc["model"] = {"kind": "rf", "params": {"n_estimators": 40}}
    elif name == "panel_lr":
        doc["generator"]["n_companies"] = 40_000
        doc["generator"]["imbalance_ratio"] = 12
        doc["model"] = {"kind": "lr", "params": None}
    doc["seed"] = int(seed)
    if smoke:
        doc["generator"]["n_companies"] = 600
        doc["generator"]["imbalance_ratio"] = 12
        doc["attribution"] = {"background_size": 8, "n_instances": 3, "group_countries": True}
        if name == "demo_gbt":
            doc["model"] = {"kind": "gbt", "params": {"n_estimators": 3, "max_depth": 3}}
        elif name == "forest_rf":
            doc["model"] = {"kind": "rf", "params": {"n_estimators": 3, "max_depth": 4}}
    return doc
