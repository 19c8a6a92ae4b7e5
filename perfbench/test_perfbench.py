#!/usr/bin/env python3
"""Tests of the repository benchmark, on the smoke size of every workload.

    python3 perfbench/test_perfbench.py

Builds mdr_perfbench like a benchmark run does (into .bench_build/ or
$CARGO_TARGET_DIR), then checks the output contract of run.py for every
workload in both modes, the determinism of the output digest, the shard
invariance the traced run relies on, the compare/spread verdicts, and that
the benchmark refuses to run without the simulator sources.
"""

import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def bench_run(*args):
    """run.py's exit code, stdout lines and its parsed last line."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                       + list(args), capture_output=True, text=True,
                       cwd=run.ROOT, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1]) if lines else None


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def instance(self, *args):
        p = subprocess.run([self.binary] + list(args), capture_output=True,
                           text=True, check=True, timeout=120)
        return json.loads(p.stdout)

    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["end_to_end"]],
                         run.END_TO_END)

    def test_end_to_end_smoke(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = bench_run(
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--smoke")
                self.assertEqual(code, 0)
                self.check_metrics(result, BENCH["end_to_end"])
                for name, _ in run.END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0)
                    self.assertTrue(any(l.startswith(name) for l in lines))

    def test_per_layer_smoke(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = bench_run(
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "1", "--smoke")
                self.assertEqual(code, 0)
                self.check_metrics(result, BENCH["per_layer"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(m["sim.events"], 0)
                self.assertGreater(m["proto.entries_folded"], 0)
                self.assertGreater(m["proto.diff.entries_folded"], 0)
                self.assertTrue(0 <= m["engine.stall_share"] < 1)
                self.assertTrue(0 < m["core.control_share"] < 1)

    def test_digest_repeats_for_a_seed_and_moves_with_it(self):
        a = self.instance("--workload", "cairn_fig", "--seed", "5", "--smoke")
        b = self.instance("--workload", "cairn_fig", "--seed", "5", "--smoke",
                          "--prof")
        c = self.instance("--workload", "cairn_fig", "--seed", "6", "--smoke")
        self.assertEqual(a["digest"], b["digest"])
        self.assertEqual(a["events"], b["events"])
        self.assertNotEqual(a["digest"], c["digest"])
        self.assertGreater(a["lfi_checks"], 0)
        self.assertEqual(a["lfi_violations"], 0)

    def test_digest_is_shard_count_invariant(self):
        digests = {
            shards: self.instance("--workload", "waxman120_steady", "--seed",
                                  "4", "--smoke", "--shards", shards)["digest"]
            for shards in ("1", "2", "4")}
        self.assertEqual(len(set(digests.values())), 1, digests)

    def test_replay_folds_both_regimes(self):
        r = self.instance("--workload", "waxman120_steady", "--seed", "4",
                          "--smoke", "--replay")
        self.assertEqual(r["routers"], 3)
        for regime in ("bulk", "steady"):
            self.assertGreater(r[regime]["entries"], 0)
            self.assertEqual(r[regime]["lsu_calls"], r[regime]["mtu_calls"])
        again = self.instance("--workload", "waxman120_steady", "--seed", "4",
                              "--smoke", "--replay")
        self.assertEqual(r["steady"]["entries"], again["steady"]["entries"])

    def test_refuses_without_simulator_sources(self):
        bare = tempfile.mkdtemp(dir=os.path.dirname(self.binary))
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cairn_fig",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")
        finally:
            shutil.rmtree(bare)


class Verdicts(unittest.TestCase):
    def test_improved_needs_wins_and_a_shift_beyond_the_spread(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        self.assertEqual(run.verdict(base, [x - 1 for x in base], 0.1,
                                     True)[0], "improved")
        self.assertEqual(run.verdict(base, [x + 0.05 for x in base], 0.1,
                                     True)[0], "no worse within bound")
        self.assertEqual(run.verdict(base, [x * 1.5 for x in base], 0.1,
                                     True)[0], "worse")
        self.assertEqual(run.verdict(base, [x + 1 for x in base], 0.1,
                                     False)[0], "improved")

    def test_wide_spread_is_unresolved(self):
        base = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        head = [x * 1.02 for x in base]
        self.assertEqual(run.verdict(base, head, 0.1, True)[0], "unresolved")

    def test_compare_and_spread_read_records(self):
        tmp = tempfile.mkdtemp()
        try:
            paths = {}
            for side, scale in (("base", 1.0), ("head", 0.5)):
                paths[side] = os.path.join(tmp, side + ".jsonl")
                with open(paths[side], "w") as f:
                    for i in range(10):
                        metrics = {m["name"]: {"value": scale * (10 + i % 3),
                                               "unit": m["unit"]}
                                   for m in BENCH["end_to_end"]}
                        f.write(json.dumps({
                            "workload": "cairn_fig", "seed": i, "trace": 0,
                            "host_cpus": 4,
                            "result": {"metrics": metrics}}) + "\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.main(["compare", paths["base"], paths["head"]])
                run.main(["spread", paths["base"]])
            lines = out.getvalue().splitlines()
            self.assertEqual(lines[0], "host_cpus: 4")
            rows = [l for l in lines if l.startswith("cairn_fig")]
            self.assertEqual(len(rows), 2 * len(BENCH["end_to_end"]))
            self.assertTrue(all("improved" in r
                                for r in rows[:len(BENCH["end_to_end"])]))
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
