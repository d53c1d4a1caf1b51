"""The benchmark's own tests (about a minute; not part of the repo's pytest run).

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".perfbench_tmp"


def bench(*args: str, script: Path = HERE / "run.py") -> Tuple[int, List[str]]:
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=script.parent.parent,
        capture_output=True,
        text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


class BenchmarkTests(unittest.TestCase):
    def setUp(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=SCRATCH))

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    def test_benchmark_json_names_every_printed_metric(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        empty = {"trace": {"stats": {}, "counters": {}}, "runs": 1}
        printed = [(name, unit) for name, (_, unit) in run.layer_metrics(empty).items()]
        printed.append(("trace.overhead_frac", "ratio"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], printed)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_repeat_check_flags_counts_only(self) -> None:
        first = {"a.calls": (3, "count"), "a.self_s": (1.0, "s"),
                 "store.flush.calls": (2, "count")}
        same = {"a.calls": (3, "count"), "a.self_s": (2.0, "s"),
                "store.flush.calls": (5, "count")}
        self.assertEqual(run.repeat_mismatches(first, same), [])
        other = dict(same, **{"a.calls": (4, "count")})
        self.assertEqual(run.repeat_mismatches(first, other), ["a.calls"])

    def test_differing_repetition_is_a_failure(self) -> None:
        workload = WORKLOADS["un_saturated"]
        summary = {"packets_delivered": 1}
        outcome = run.Outcome()
        outcome.add(workload, {"failed_runs": 0, "runs": 1, "summary": summary,
                               "digest": "a"}, None, "rep 0")
        self.assertTrue(outcome.add(workload, {"failed_runs": 0, "runs": 1,
                                               "summary": summary, "digest": "b"},
                                    None, "rep 1"))
        self.assertEqual((outcome.attempted, outcome.failed), (2, 1))

    def checkout(self, with_sources: bool) -> Path:
        """A copy of the benchmark (and of ``src/``) in a scratch directory."""
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, self.tmp / "perfbench", ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        if with_sources:
            shutil.copytree(ROOT / "src", self.tmp / "src", ignore=ignore)
        return self.tmp / "perfbench" / "run.py"

    def test_tampered_reference_is_reported(self) -> None:
        script = self.checkout(with_sources=True)
        tampered = script.parent / "references.json"
        references = json.loads(tampered.read_text())
        references["un_saturated"]["accepted_load"] += 1e-12
        tampered.write_text(json.dumps(references))
        code, lines = bench("--workload", "un_saturated", "--seconds", "1",
                            script=script)
        result = json.loads(lines[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("accepted_load" in line for line in lines))

    def test_other_seed_skips_reference_and_prints_digest(self) -> None:
        code, lines = bench("--workload", "un_saturated", "--seed", "8",
                            "--seconds", "1")
        result = json.loads(lines[-1])
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertTrue(any(line.startswith("summary digest") and
                            "no reference" in line for line in lines))
        self.assertEqual({name for name, _ in run.END_TO_END}, set(result["metrics"]))

    def test_traced_run_matches_untraced_and_repeats(self) -> None:
        code, lines = bench("--workload", "adv_pb_reqrep", "--trace", "1")
        result = json.loads(lines[-1])
        self.assertEqual(code, 0, lines[-5:])
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        for name in ("router.pump.calls", "routing.decide.calls",
                     "router.saturation.calls", "core.vc_policy.calls"):
            self.assertGreater(metrics[name]["value"], 0, name)
        self.assertIn("trace.overhead_frac", metrics)

    def test_without_sources_exits_nonzero_without_result(self) -> None:
        code, lines = bench("--workload", "un_saturated", "--seed", "1",
                            "--seconds", "1", "--trace", "0",
                            script=self.checkout(with_sources=False))
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
