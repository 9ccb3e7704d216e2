#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build malleus_perfbench like run.py does and use small serve
streams, so they take well under a minute once it is built.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TEST_DIR = run.build_dir() / "test"


def bench(*args, env=None):
    """Runs run.py; returns (exit code, last-line result, stdout)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stdout


def serve_args(requests, malformed=0, expected=None):
    args = ["--workload", "serve-replan-70b", "--seed", "7", "--seconds", "1",
            "--trace", "0", "--serve-requests", str(requests)]
    if malformed:
        args += ["--serve-malformed", str(malformed)]
    if expected is not None:
        args += ["--expected-digests", str(expected)]
    return args


def stamped_digest(stdout):
    """The digest recorded in the environment stamp (second-to-last line)."""
    return json.loads(stdout.strip().splitlines()[-2])["env"]["digest"]


class DigestGateTest(unittest.TestCase):

    def setUp(self):
        TEST_DIR.mkdir(parents=True, exist_ok=True)

    def write_expected(self, digest):
        key = run.digest_key("serve-replan-70b", 7, 1, 0)
        path = TEST_DIR / "expected.json"
        path.write_text(json.dumps({key: digest}))
        return path

    def test_gate_passes_on_committed_digest_and_fails_on_perturbed(self):
        missing = TEST_DIR / "no_digests.json"
        code, result, stdout = bench(*serve_args(40, expected=missing))
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        digest = stamped_digest(stdout)

        code, result, _ = bench(*serve_args(40, expected=self.write_expected(
            digest)))
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

        perturbed = ("0" if digest[0] != "0" else "1") + digest[1:]
        code, result, stdout = bench(*serve_args(
            40, expected=self.write_expected(perturbed)))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("DIGEST MISMATCH", stdout)

    def test_one_malformed_line_fails_exactly_one_of_n(self):
        n = 20
        code, result, stdout = bench(*serve_args(n, malformed=1))
        self.assertEqual(code, 0)
        self.assertEqual(result["attempted"], n)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["metrics"]["success_rate"]["value"], 1 - 1 / n)
        env = json.loads(stdout.strip().splitlines()[-2])["env"]
        self.assertEqual(env["error_rate"], 1 / n)


class EnvironmentTest(unittest.TestCase):

    def test_library_overrides_are_cleared_and_stamped(self):
        env = {k: v for k, v in os.environ.items()
               if k not in run.CLEARED_ENV}
        env.update(MALLEUS_NET_MODEL="flow", MALLEUS_PLANNER_THREADS="3")
        code, result, stdout = bench(*serve_args(20), env=env)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        stamp = json.loads(stdout.strip().splitlines()[-2])["env"]
        self.assertEqual(stamp["net_model"], "analytic")
        self.assertEqual(stamp["planner_threads"], 1)
        self.assertEqual(stamp["cleared_env"],
                         {"MALLEUS_NET_MODEL": "flow",
                          "MALLEUS_PLANNER_THREADS": "3"})


class SpecTest(unittest.TestCase):

    def test_committed_digests_cover_every_workload_at_the_default_seed(self):
        spec = run.load_spec()
        with open(HERE / "expected_digests.json", encoding="utf-8") as f:
            committed = json.load(f)
        for workload in spec["workloads"]:
            for trace in (0, 1):
                key = run.digest_key(workload["name"], run.DEFAULT_SEED,
                                     spec["run_seconds"], trace)
                self.assertIn(key, committed)

    def test_layer_map_names_every_metric(self):
        spec = run.load_spec()
        with open(HERE / "layer_map.json", encoding="utf-8") as f:
            layer_map = json.load(f)
        self.assertEqual(set(layer_map["per_layer"]),
                         {m["name"] for m in spec["per_layer"]})
        self.assertEqual(set(layer_map["end_to_end"]),
                         {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(set(layer_map["workloads"]),
                         {w["name"] for w in spec["workloads"]})


if __name__ == "__main__":
    unittest.main()
