#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-input pass of every workload, traced
and untraced, plus the correctness gate and the build guard.

    python3 hdsbench/test_bench.py        (from the repository root)

The first test builds the programs, as the first benchmark run does.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
         "--seconds", "0.1", "--seed", "7"] + list(args),
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("run.py %s exited %d:\n%s"
                             % (" ".join(args), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyWorkloads(unittest.TestCase):
    def check(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_every_metric_is_emitted(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result = bench("--workload", w, "--trace", "0")
                self.check(result, BENCHMARK["end_to_end"])
                for m in BENCHMARK["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                result = bench("--workload", w, "--trace", "1")
                self.check(result, BENCHMARK["per_layer"])
                self.assertGreater(
                    result["metrics"]["trace.coverage"]["value"], 0.5)

    def test_corrupted_restore_is_counted(self):
        result = bench("--workload", "serial-nightly", "--trace", "0",
                       "--corrupt-restore")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class Units(unittest.TestCase):
    def test_build_guard_refuses_unoptimised_builds(self):
        for build_type in ("", "Debug"):
            with self.assertRaises(run.BenchError):
                run.check_build_type(build_type)
        run.check_build_type("Release")
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "CMakeCache.txt"), "w") as f:
                f.write("CMAKE_BUILD_TYPE:STRING=\n")
            self.assertEqual(run.cache_build_type(d), "")

    def test_inputs_follow_the_seed(self):
        a = inputs.byte_chain(3, 64 * 1024, 3, 0.05)
        self.assertEqual(a, inputs.byte_chain(3, 64 * 1024, 3, 0.05))
        self.assertNotEqual(a, inputs.byte_chain(4, 64 * 1024, 3, 0.05))
        self.assertNotEqual(a[0], a[1])
        trees, hot = inputs.file_tree(3, 20, 8192, 3, 0.15, 0.1)
        self.assertEqual(len(hot), 3)
        for name in trees[0]:
            self.assertEqual(trees[0][name] == trees[2][name],
                             name not in hot)

    def test_tree_stream_layout(self):
        stream = inputs.tree_stream("src", {"b": b"xy", "a": b"1"})
        self.assertEqual(stream, b"src/a\n1\n1src/b\n2\nxy")

    def test_resurrection_needs_a_gap(self):
        inp = run.Inputs.__new__(run.Inputs)
        inp.fingerprints = {1: {"aa", "bb"}, 2: {"bb"}, 3: {"aa", "bb"},
                            4: {"cc"}}
        self.assertTrue(inp.resurrected(None, "aa"))
        self.assertFalse(inp.resurrected(None, "bb"))
        self.assertFalse(inp.resurrected(None, "cc"))
        self.assertFalse(inp.resurrected(None, "dd"))


if __name__ == "__main__":
    unittest.main()
