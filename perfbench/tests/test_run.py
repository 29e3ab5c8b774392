"""Tests of perfbench/run.py: the BENCHMARK.json catalog, the result line's
schema, failure accounting, and the refusal to run without the sources.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fake_raw(problems=(), failed_runs=0, runs=4, dead=0):
    summary = {"root_jobs": 100, "dead_lettered": dead, "lost": 0,
               "sim_makespan_s": 10.0, "sim_data_load_mb": 5.0, "sim_cache_misses": 3,
               "sim_turnaround_p50_s": 1.0, "sim_turnaround_p99_s": 2.0,
               "turnaround_jobs": 100, "jobs_completed_frac": (100 - dead) / 100}
    return {"problems": list(problems), "failed_runs": failed_runs, "runs": runs,
            "summary": summary, "build": {"build_type": "Release", "optimized": True}}


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_limits(self):
        doc = load_benchmark()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(doc["paths"], ["perfbench"])
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        names = []
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertEqual(tuple(names), run.WORKLOADS)
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_catalog_matches_run_py(self):
        doc = load_benchmark()
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         list(run.PER_LAYER))
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in bounds.values()))


class ResultLineTest(unittest.TestCase):
    def test_end_to_end_line_has_every_metric_with_its_unit(self):
        rss = dict(fake_raw(runs=1), peak_rss_mb=12.5)
        e2e = dict(fake_raw(), jobs_per_s=[3.0, 1.0, 2.0], run_s=[1.0, 1.0, 2.0],
                   setup_s=[0.5, 0.25, 0.75])
        values = run.end_to_end_metrics(rss, e2e)
        line = run.result_line(True, 500, 0, values, run.END_TO_END)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), [name for name, _, _ in run.END_TO_END])
        for name, unit, _ in run.END_TO_END:
            self.assertEqual(set(line["metrics"][name]), {"value", "unit"})
            self.assertEqual(line["metrics"][name]["unit"], unit)
        self.assertEqual(line["metrics"]["jobs_per_s"]["value"], 2.0)  # 8 jobs in 4 s
        self.assertEqual(line["metrics"]["setup_s"]["value"], 0.25)  # fastest set-up
        self.assertEqual(line["metrics"]["peak_rss_mb"]["value"], 12.5)
        json.dumps(line)  # serializable as one line

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"jobs_per_s": 1.0}, run.END_TO_END)

    def test_failed_check_zeroes_completion_and_counts_every_job(self):
        rss = dict(fake_raw(runs=1), peak_rss_mb=12.5)
        e2e = dict(fake_raw(problems=["measured run 2: 3 jobs lost"], failed_runs=1),
                   jobs_per_s=[1.0], run_s=[1.0], setup_s=[1.0])
        self.assertEqual(run.end_to_end_metrics(rss, e2e)["jobs_completed_frac"], 0.0)
        self.assertEqual(run.failures(e2e), (400, 100))

    def test_run_that_threw_still_gives_every_metric(self):
        rss = dict(fake_raw(problems=["run: threw: boom"], failed_runs=1, runs=1),
                   peak_rss_mb=3.0)
        e2e = dict(fake_raw(problems=["warm-up run 0: threw: boom"], failed_runs=1, runs=1),
                   jobs_per_s=[], run_s=[], setup_s=[])
        values = run.end_to_end_metrics(rss, e2e)
        line = run.result_line(False, 200, 200, values, run.END_TO_END)
        self.assertEqual(values["jobs_per_s"], 0.0)
        self.assertEqual(values["setup_s"], 0.0)
        self.assertEqual(values["jobs_completed_frac"], 0.0)
        self.assertEqual(run.failures(e2e), (100, 100))
        self.assertFalse(line["correct"])

    def test_dead_letters_count_as_failed_root_jobs(self):
        self.assertEqual(run.failures(fake_raw(dead=2)), (400, 8))


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_a_result_when_only_the_benchmark_is_present(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                                  timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
