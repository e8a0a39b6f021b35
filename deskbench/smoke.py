"""Smoke test of the benchmark itself, on shrunken configs (600 companies,
three trees, three explained instances), so it finishes in well under a
minute:

    python3 deskbench/smoke.py

It runs every workload's code path in both modes, checks that the metric
names and units match BENCHMARK.json, and shows that a stale cached stage,
a wrong attribution, a bundle that drifts from its reference and a count
that changes between runs each count as a failed run.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke_doc(name: str) -> dict:
    return workloads.config_doc(name, SEED, run.SRC, smoke=True)


def setUpModule():
    # Keep the counts this test records apart from those of measured runs.
    global _state
    _state, run.STATE = run.STATE, run.WORK / "smoke-state"


def tearDownModule():
    run.STATE = _state
    shutil.rmtree(run.WORK, ignore_errors=True)


class EveryWorkload(unittest.TestCase):
    def test_end_to_end_metrics(self):
        want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
        self.assertEqual(want, run.END_TO_END_UNITS)
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                res = run.measure(name, SEED, 0.0, trace=False, doc=smoke_doc(name))
                self.assertTrue(res["correct"], res["problems"])
                self.assertEqual(res["attempted"], 1 + run.MIN_RERUNS)
                self.assertEqual(set(res["metrics"]), set(want))
                self.assertTrue(all(v > 0 for v in res["metrics"].values()), res["metrics"])
                self.assertEqual(res["samples"]["setup_s"], run.SETUP_SAMPLES + 1)

    def test_traced_layer_metrics(self):
        want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                res = run.measure(name, SEED, 0.0, trace=True, doc=smoke_doc(name))
                self.assertTrue(res["correct"], res["problems"])
                m = res["metrics"]
                self.assertEqual(set(m), set(want))
                self.assertEqual({k: run.unit_of(k) for k in m}, want)
                self.assertEqual(m["shapley.model_rows"], 3 * 2**10 * 8)
                self.assertEqual(m["pipeline.cache_misses"], 8)
                self.assertEqual(m["pipeline.cache_hits"], 8)
                self.assertLessEqual(m["shapley.efficiency_residual_max"], checks.EFFICIENCY_TOL)
                self.assertGreater(m["smote.minority_rows"], 0)
                self.assertGreater(m["dataprep.csv_read_mb"], 0)
                if name == "panel_lr":
                    self.assertEqual(m["trees.nodes"], 0)
                    self.assertEqual(m["trees.fit_tree_s"], 0)
                else:
                    self.assertGreater(m["trees.nodes"], 0)
                    self.assertGreater(m["trees.routed_row_trees"], 0)
                    self.assertEqual(m["trees.fit_tree_calls"], 6)


class FailuresCount(unittest.TestCase):
    def setUp(self):
        self.work = run.WORK / "smoke"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(smoke_doc("demo_gbt")))

    def tearDown(self):
        shutil.rmtree(run.WORK, ignore_errors=True)

    def cold(self, out: Path, copy_to: Path) -> dict:
        return run.spawn(["--config", str(self.config), "--out", str(out), "--cold-copy", str(copy_to)],
                         run.now() + 60)

    def test_stale_cached_stage_fails_the_rerun(self):
        out, report = self.work / "run", self.work / "cold.json"
        first = self.cold(out, report)
        perf = next((out / "stages").glob("evaluate_*/performance.json"))
        doc = json.loads(perf.read_text())
        doc["rows"][0]["accuracy"] = 0.5
        perf.write_text(json.dumps(doc))
        second = self.cold(out, self.work / "second.json")  # every stage is a cache hit
        result = {"runs": first["runs"] + second["runs"]}
        attempted, failed, problems, _ = run.check_child(result, report, None)
        self.assertEqual((attempted, failed), (2, 1), problems)

    def test_wrong_phi_fails_the_run(self):
        report = self.work / "cold.json"
        res = self.cold(self.work / "run", report)
        self.assertEqual(run.check_child(res, report, None)[1], 0)
        doc = json.loads(report.read_text())
        doc["attribution"]["phi"][1][0] += 1e-6
        report.write_text(json.dumps(doc))
        attempted, failed, problems, _ = run.check_child(res, report, None)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("efficiency residual", problems[0])

    def test_bundle_must_match_its_reference(self):
        report = self.work / "cold.json"
        res = self.cold(self.work / "run", report)
        reference = {"report": json.loads(report.read_text())}
        self.assertEqual(run.check_child(res, report, reference)[1], 0)
        for tamper in (
            lambda d: d["performance"]["rows"][0].__setitem__("auc", d["performance"]["rows"][0]["auc"] + 1e-11),
            lambda d: d["attribution"]["ranking"].reverse(),
            lambda d: d["grading"]["confusion"]["matrix"][0].__setitem__(0, d["grading"]["confusion"]["matrix"][0][0] + 1),
            lambda d: d["generation"].__setitem__("n_records", float(d["generation"]["n_records"]) + 0.5),
        ):
            drifted = copy.deepcopy(reference)
            tamper(drifted["report"])
            self.assertEqual(run.check_child(res, report, drifted)[1], 1)
        within = copy.deepcopy(reference)
        within["report"]["attribution"]["base_value"] += 1e-13
        self.assertEqual(run.check_child(res, report, within)[1], 0)

    def test_changed_count_is_reported(self):
        counts = {k: 10 for k in run.EXACT_COUNTS}
        doc = {"smoke": "changed-count"}
        self.assertEqual(run.compare_counts(counts, "demo_gbt", SEED, doc, None), [])
        self.assertEqual(run.compare_counts(counts, "demo_gbt", SEED, doc, None), [])
        changed = dict(counts, **{"trees.nodes": 11})
        self.assertEqual(len(run.compare_counts(changed, "demo_gbt", SEED, doc, None)), 1)
        self.assertEqual(len(run.compare_counts(changed, "demo_gbt", SEED + 1, doc, {"counts": counts})), 1)


class Contract(unittest.TestCase):
    def test_refuses_to_run_without_the_source(self):
        src = run.SRC
        run.SRC = run.WORK / "missing"
        try:
            self.assertEqual(run.main(["--workload", "demo_gbt", "--seed", "1", "--seconds", "1"]), 2)
        finally:
            run.SRC = src


if __name__ == "__main__":
    unittest.main(verbosity=2)
