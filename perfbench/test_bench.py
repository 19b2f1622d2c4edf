#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py            # everything (a few minutes)
    python3 perfbench/test_bench.py Declarations Inputs   # no workload runs

Declarations checks BENCHMARK.json and spec.json; Inputs checks that the
seed alone determines each workload's inputs; Smoke runs every workload
with a two-second window; Verification corrupts one job's checksum and
expects ok_frac to drop; Isolation runs the entry point without the sources.
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
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("eutectic_3d", "dendrite_2d_blocks")


def load(path):
    with open(path) as f:
        return json.load(f)


def run_bench(*args):
    """Runs the entry point; returns (exit code, stdout lines)."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                       list(args), cwd=ROOT, capture_output=True, text=True)
    return p.returncode, [l for l in p.stdout.splitlines() if l.strip()]


def last_json(lines):
    return json.loads(lines[-1])


class Declarations(unittest.TestCase):
    def setUp(self):
        self.b = load(run.BENCHMARK)
        self.spec = load(run.SPEC)

    def test_top_level_keys(self):
        self.assertEqual(sorted(self.b), sorted([
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"]))
        self.assertEqual([w["name"] for w in self.b["workloads"]],
                         list(WORKLOADS))
        self.assertEqual(sorted(self.spec["workloads"]), sorted(WORKLOADS))
        dropped = {d["name"] for d in self.spec["dropped_workloads"]}
        self.assertFalse(dropped & set(WORKLOADS))
        for d in self.spec["dropped_workloads"]:
            self.assertTrue(d["why"] and d["measured"]["spreads"], d["name"])

    def test_names(self):
        seen = set()
        for group in ("workloads", "end_to_end", "per_layer"):
            for m in self.b[group]:
                self.assertRegex(m["name"], NAME)
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
                if group != "workloads":
                    self.assertRegex(m["unit"], UNIT)
                    self.assertIn(m["better"], ("lower", "higher"))

    def test_end_to_end_bounds(self):
        bounds = {}
        for m in self.b["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
            bounds[m["name"]] = m["bound"]
            self.assertIn(m["name"], self.spec["end_to_end"])
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_layer_metric_declares_what_it_moves(self):
        e2e = {m["name"] for m in self.b["end_to_end"]}
        layers = self.spec["per_layer"]
        for m in self.b["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            decl = layers.get(m["name"])
            self.assertIsNotNone(decl, m["name"])
            self.assertTrue(decl.get("call"), m["name"])
            if not decl["moves"]:
                self.assertTrue(decl.get("note"),
                                m["name"] + " moves nothing and says why not")
            for mv in decl["moves"]:
                self.assertIn(mv["metric"], e2e, m["name"])
                self.assertIn(mv["workload"], WORKLOADS, m["name"])
        self.assertEqual(set(layers), {m["name"] for m in self.b["per_layer"]})

    def test_workload_records(self):
        for w in WORKLOADS:
            ws = self.spec["workloads"][w]
            for key in ("why", "l2_bytes_per_core", "l3_bytes", "ranks",
                        "timed_window", "verification"):
                self.assertIn(key, ws, (w, key))
            self.assertEqual(sorted(ws["tail_percentile"]), ["step_ms_tail"])
            self.assertTrue(50 <= ws["tail_percentile"]["step_ms_tail"] < 100)
            self.assertGreaterEqual(ws["cold_jobs"], 2, w)
            self.assertGreaterEqual(ws["min_warm_jobs"], 3, w)
            self.assertGreaterEqual(ws["job_steps"], ws["check_step"], w)


class Inputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build(os.path.join(run.build_root(), "perfbench"))

    def inputs(self, workload, seed):
        out = subprocess.run(
            [self.exe, "inputs", "--workload", workload, "--seed", str(seed),
             "--seconds", "10", "--spec", run.SPEC],
            check=True, capture_output=True, text=True).stdout
        return json.loads(out)

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS:
            a, b, c = self.inputs(w, 7), self.inputs(w, 7), self.inputs(w, 8)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)

    def test_inputs_follow_the_spec_geometry(self):
        spec = load(run.SPEC)["workloads"]
        eu = self.inputs("eutectic_3d", 1)
        self.assertEqual([eu["cells"]] * 3, spec["eutectic_3d"]["cells"])
        self.assertEqual(eu["threads"], spec["eutectic_3d"]["threads"])
        de = self.inputs("dendrite_2d_blocks", 1)
        sd = spec["dendrite_2d_blocks"]
        self.assertEqual([de["cells"], de["cells"], 1], sd["cells"])
        self.assertEqual([de["blocks"], de["blocks"], 1], sd["blocks"])
        self.assertEqual(de["ranks"], sd["ranks"])


class Smoke(unittest.TestCase):
    def test_each_workload_runs_and_verifies(self):
        # The schedule still runs every cold job and min_warm_jobs warm ones.
        names = [m["name"] for m in load(run.BENCHMARK)["end_to_end"]]
        for w in WORKLOADS:
            code, lines = run_bench("--workload", w, "--seed", "3",
                                    "--seconds", "2", "--trace", "0")
            self.assertEqual(code, 0, w)
            res = last_json(lines)
            self.assertEqual(sorted(res), ["attempted", "correct", "failed",
                                           "metrics"])
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0, w)
            self.assertEqual(sorted(res["metrics"]), sorted(names))
            self.assertEqual(res["metrics"]["ok_frac"]["value"], 1.0)
            for n in names:
                self.assertGreater(res["metrics"][n]["value"], 0, (w, n))


class Verification(unittest.TestCase):
    def test_corrupted_checksum_lowers_ok_frac(self):
        code, lines = run_bench("--workload", "dendrite_2d_blocks", "--seed",
                                "3", "--seconds", "2", "--trace", "0",
                                "--corrupt-checksum")
        self.assertEqual(code, 0)
        res = last_json(lines)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["ok_frac"]["value"], 1.0)


class Isolation(unittest.TestCase):
    def test_without_sources_it_fails_without_a_result(self):
        os.makedirs(run.build_root(), exist_ok=True)
        d = tempfile.mkdtemp(dir=run.build_root())
        try:
            shutil.copy(run.BENCHMARK, d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", "dendrite_2d_blocks", "--seed", "1",
                                "--seconds", "2", "--trace", "0"],
                               cwd=d, capture_output=True, text=True,
                               env=dict(os.environ, CARGO_TARGET_DIR=".bb"))
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
