#!/usr/bin/env python3
"""Unit tests for scripts/bench_gate.py on synthetic BENCH_*.json
directories: a committed baseline and a fresh run, compared by running
the gate as CI does.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_gate.py")

# A gated experiment with more VM rows than tree rows, so a median taken
# across both backends lands on a VM row.
TREE_ROWS = [f"dispatch_ms/size={n}" for n in (0, 10, 100)]
VM_ROWS = [f"dispatch_ms/size={n}" for n in (0, 10, 100)] + \
    [f"direct_ms/size={n}" for n in (0, 10, 100)]


def rows(tree, vm):
    """BENCH rows: [tree] and [vm] map metric -> value."""
    return ([{"experiment": "e2", "backend": "tree", "metric": m,
              "value": v} for m, v in tree.items()] +
            [{"experiment": "e2", "backend": "vm", "metric": m,
              "value": v} for m, v in vm.items()])


def baseline():
    return ({m: 10.0 + i for i, m in enumerate(TREE_ROWS)},
            {m: 5.0 + i for i, m in enumerate(VM_ROWS)})


class BenchGateTest(unittest.TestCase):
    def gate(self, base, new, *extra):
        """Exit code and output of the gate over two directories."""
        return self.gate_runs(base, [new], *extra)

    def gate_runs(self, base, news, *extra):
        """Exit code and output of the gate over a baseline directory and
        one directory per fresh run."""
        with tempfile.TemporaryDirectory() as root:
            dirs = []
            for i, rs in enumerate([base] + news):
                d = os.path.join(root, str(i))
                os.mkdir(d)
                with open(os.path.join(d, "BENCH_E2.json"), "w") as f:
                    json.dump(rs, f)
                dirs.append(d)
            new_args = [a for d in dirs[1:] for a in ("--new-dir", d)]
            p = subprocess.run(
                [sys.executable, GATE, "--baseline-dir", dirs[0], *new_args,
                 *extra],
                capture_output=True, text=True)
            return p.returncode, p.stdout

    def test_unchanged_run_passes(self):
        tree, vm = baseline()
        code, out = self.gate(rows(tree, vm), rows(tree, vm))
        self.assertEqual(code, 0, out)

    def test_faster_vm_leaves_unchanged_tree_rows_passing(self):
        tree, vm = baseline()
        faster = {m: v * 2 / 3 for m, v in vm.items()}
        code, out = self.gate(rows(tree, vm), rows(tree, faster))
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSION", out)

    def test_one_slower_tree_row_still_fails(self):
        tree, vm = baseline()
        faster = {m: v * 2 / 3 for m, v in vm.items()}
        slower = dict(tree)
        slower[TREE_ROWS[1]] *= 1.5
        code, out = self.gate(rows(tree, vm), rows(slower, faster))
        self.assertEqual(code, 1, out)
        self.assertIn(f"e2/tree/{TREE_ROWS[1]}", out)
        self.assertEqual(out.count("<< REGRESSION"), 1, out)

    def test_one_slower_vm_row_fails(self):
        tree, vm = baseline()
        slower = dict(vm)
        slower[VM_ROWS[0]] *= 1.5
        code, out = self.gate(rows(tree, vm), rows(tree, slower))
        self.assertEqual(code, 1, out)
        self.assertIn(f"e2/vm/{VM_ROWS[0]}", out)

    def test_uniformly_slower_machine_passes(self):
        tree, vm = baseline()
        code, out = self.gate(
            rows(tree, vm),
            rows({m: v * 3 for m, v in tree.items()},
                 {m: v * 3 for m, v in vm.items()}))
        self.assertEqual(code, 0, out)

    def test_slo_bound_still_applies(self):
        tree, vm = baseline()
        code, out = self.gate(rows(tree, vm), rows(tree, vm),
                              "--slo", f"e2/{TREE_ROWS[0]}<=1")
        self.assertEqual(code, 1, out)
        self.assertIn("SLO", out)

    def slow_runs(self, slow):
        """Three fresh runs of an unchanged baseline, the first [slow] of
        them with one tree row 1.5x slower."""
        tree, vm = baseline()
        slower = dict(tree)
        slower[TREE_ROWS[1]] *= 1.5
        return [rows(slower if i < slow else tree, vm) for i in range(3)]

    def test_row_slow_in_one_run_of_three_passes(self):
        tree, vm = baseline()
        code, out = self.gate_runs(rows(tree, vm), self.slow_runs(1))
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSION", out)

    def test_row_slow_in_two_runs_of_three_fails(self):
        tree, vm = baseline()
        code, out = self.gate_runs(rows(tree, vm), self.slow_runs(2))
        self.assertEqual(code, 1, out)
        self.assertIn(f"e2/tree/{TREE_ROWS[1]}", out)

    def test_slo_missed_in_one_run_of_three_holds(self):
        tree, vm = baseline()
        low = dict(tree)
        low[TREE_ROWS[0]] = 0.5
        news = [rows(low, vm), rows(tree, vm), rows(tree, vm)]
        code, out = self.gate_runs(rows(tree, vm), news,
                                   "--slo", f"e2/{TREE_ROWS[0]}>=1")
        self.assertEqual(code, 0, out)
        self.assertNotIn("FAIL", out)


if __name__ == "__main__":
    unittest.main()
