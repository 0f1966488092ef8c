#!/usr/bin/env python3
"""Fast tests of the benchmark's own code, at tiny N.

    python3 perfbench/selftest.py

They check that the replay check rejects corrupted event logs, that the
input generator is a function of the seed, and the self-time arithmetic.
"""

import os
import shutil
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = SRC / "epsim" / "data"
sys.path[:0] = [str(SRC), str(HERE)]

import inputs  # noqa: E402
from replay import Cluster, replay  # noqa: E402
from spans import self_times  # noqa: E402


class ScratchDir:
    """A fresh directory under perfbench/.scratch, removed afterwards."""

    def __enter__(self) -> Path:
        self.path = HERE / ".scratch" / f"selftest-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


ONE_NODE = Cluster(1, 36, {"x": (True, None), "s": (False, None), "q": (True, 1)})


class HandMadeLogs(unittest.TestCase):
    def test_valid_chain_passes(self):
        events = [("a", "Submit", 0.0), ("a", "Start", 0.0), ("a", "Finish", 1.0),
                  ("b", "Submit", 1.0), ("b", "Start", 1.0), ("b", "Finish", 3.0)]
        problems, stats = replay(events, {"a": ("x", 1, 1.0), "b": ("x", 1, 2.0)}, {"b": ("a",)}, ONE_NODE)
        self.assertEqual(problems, [])
        self.assertEqual(stats.dispatch_times, 3)

    def test_broken_precedence(self):
        events = [("a", "Submit", 0.0), ("b", "Submit", 0.0), ("a", "Start", 0.0),
                  ("b", "Start", 0.5), ("a", "Finish", 1.0), ("b", "Finish", 2.5)]
        inst = {"a": ("s", 1, 1.0), "b": ("s", 1, 2.0)}
        problems, _ = replay(events, inst, {"b": ("a",)}, ONE_NODE)
        self.assertTrue(any(p.startswith("precedence") for p in problems), problems)

    def test_too_many_exclusive_nodes(self):
        events = [("a", "Submit", 0.0), ("b", "Submit", 0.0), ("a", "Start", 0.0),
                  ("b", "Start", 0.0), ("a", "Finish", 1.0), ("b", "Finish", 1.0)]
        problems, _ = replay(events, {"a": ("x", 1, 1.0), "b": ("x", 1, 1.0)}, {}, ONE_NODE)
        self.assertTrue(any(p.startswith("capacity") for p in problems), problems)

    def test_too_many_shared_cores(self):
        events = [("a", "Submit", 0.0), ("b", "Submit", 0.0), ("a", "Start", 0.0),
                  ("b", "Start", 0.0), ("a", "Finish", 1.0), ("b", "Finish", 1.0)]
        problems, _ = replay(events, {"a": ("s", 20, 1.0), "b": ("s", 20, 1.0)}, {}, ONE_NODE)
        self.assertTrue(any(p.startswith("capacity") for p in problems), problems)

    def test_queue_limit(self):
        cluster = replace(ONE_NODE, node_count=4)
        events = [("a", "Submit", 0.0), ("b", "Submit", 0.0), ("a", "Start", 0.0),
                  ("b", "Start", 0.0), ("a", "Finish", 1.0), ("b", "Finish", 1.0)]
        problems, _ = replay(events, {"a": ("q", 1, 1.0), "b": ("q", 1, 1.0)}, {}, cluster)
        self.assertTrue(any("queue q" in p for p in problems), problems)


class SimulatedLog(unittest.TestCase):
    """The bundled suite at n=1, N=2 on 17 nodes, as simulated, then corrupted."""

    @classmethod
    def setUpClass(cls):
        from epsim.datafiles import load_bundled_model
        from epsim.model import EnsembleConfig, expand_instances
        from epsim.simulate import simulate

        model = load_bundled_model().with_ensemble(EnsembleConfig(1, 2))
        cls.cluster = replace(model.cluster, node_count=17)  # Forecast needs all 17
        cls.graph = expand_instances(model)
        cls.events = [(e.instance_id, e.kind.value, e.time_s)
                      for e in simulate(cls.graph, cls.cluster).events]

    def check(self, events):
        cl = self.cluster
        return replay(
            events,
            {i.id: (i.queue, i.cores, i.duration_s) for i in self.graph.instances.values()},
            self.graph.preds,
            Cluster(cl.node_count, cl.cores_per_node,
                    {q: (s.exclusive_nodes, s.max_concurrent_jobs) for q, s in cl.queues.items()}),
        )[0]

    def moved(self, iid, new_start):
        """The log with iid's Start at new_start and its Finish kept one duration later."""
        duration = self.graph.instances[iid].duration_s
        out = []
        for e in self.events:
            if e[0] == iid and e[1] == "Start":
                e = (iid, "Start", new_start)
            elif e[0] == iid and e[1] == "Finish":
                e = (iid, "Finish", new_start + duration)
            out.append(e)
        order = {"Finish": 0, "Submit": 1, "Start": 2}
        return sorted(out, key=lambda e: (e[2], order[e[1]], e[0]))

    def test_log_as_simulated_passes(self):
        self.assertEqual(self.check(self.events), [])

    def test_start_before_predecessor_finishes(self):
        iid = next(i for i, p in sorted(self.graph.preds.items()) if p)
        submit = next(t for i, k, t in self.events if i == iid and k == "Submit")
        problems = self.check(self.moved(iid, submit - 1.0))
        self.assertTrue(any(p.startswith("precedence") for p in problems), problems)

    def test_two_forecasts_at_once(self):
        starts = {i: t for i, k, t in self.events if k == "Start" and i.startswith("Forecast:")}
        first, second = sorted(starts)
        problems = self.check(self.moved(second, starts[first]))
        self.assertTrue(any(p.startswith("capacity") for p in problems), problems)


def generate(out: Path, seed: int) -> dict[str, bytes]:
    out.mkdir(exist_ok=True)
    inputs.write_model(DATA, out, seed, 2, 4, 64)
    inputs.write_edges(DATA, out)
    inputs.write_profiles(DATA, out, seed)
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with ScratchDir() as d:
            first = generate(d / "a", 7)
            second = generate(d / "b", 7)
        self.assertEqual(len(first), 2 + 16)
        self.assertEqual(first, second)
        self.assertEqual(inputs.divisor_order(7), inputs.divisor_order(7))

    def test_other_seed_other_bytes(self):
        with ScratchDir() as d:
            first = generate(d / "a", 7)
            second = generate(d / "b", 8)
        self.assertEqual(first.keys(), second.keys())
        changed = [k for k in first if first[k] != second[k]]
        self.assertIn("model.json", changed)
        self.assertEqual(len(changed), len(first) - 1)  # all but the copied edge list

    def test_jitter_keeps_zeros_and_bounds(self):
        import json

        with ScratchDir() as d:
            generate(d, 3)
            jittered = json.loads((d / "model.json").read_text())
        bundled = json.loads((DATA / "rmi_eps.json").read_text())
        for new, old in zip(jittered["jobs"], bundled["jobs"]):
            for key in ("wallclock_ctrl_s", "wallclock_pert_s"):
                if old[key] == 0:
                    self.assertEqual(new[key], 0)
                else:
                    self.assertLessEqual(abs(new[key] / old[key] - 1), inputs.JITTER)


class SelfTime(unittest.TestCase):
    def test_children_overlap_counted_once(self):
        spans = [
            {"name": "a.x", "start": 0.0, "end": 10.0, "parent": None, "question": "q0"},
            {"name": "b.y", "start": 1.0, "end": 3.0, "parent": 0, "question": "q0"},
            {"name": "b.y", "start": 2.0, "end": 5.0, "parent": 0, "question": "q0"},
        ]
        self.assertEqual(self_times(spans), [6.0, 2.0, 3.0])


if __name__ == "__main__":
    unittest.main()
