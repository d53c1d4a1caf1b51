"""Output checks: simulated summaries, digests and the stored references."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping

#: SimulationResult fields compared exactly against the references.
CHECKED_FIELDS = (
    "accepted_load",
    "packets_generated",
    "packets_delivered",
    "average_latency",
    "latency_p99",
    "misrouted_fraction",
    "deadlock_suspected",
)


def summary_fields(result: Any) -> Dict[str, Any]:
    """The checked fields of a :class:`~repro.metrics.SimulationResult`."""
    return {name: getattr(result, name) for name in CHECKED_FIELDS}


def summary_digest(summaries: Mapping[str, Any]) -> str:
    """SHA-256 of summaries in canonical JSON (floats at full precision)."""
    blob = json.dumps(summaries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_rep(workload: Any, rep: Dict[str, Any],
              reference: "Dict[str, Any] | None") -> List[str]:
    """Problems with one repetition's outputs (empty when correct).

    ``reference`` is None for seeds other than the reference seed; the
    checks that need no reference still apply.
    """
    problems: List[str] = []
    if rep["failed_runs"]:
        problems.append(f"{rep['failed_runs']} failed or deadlocked run(s)")
    if workload.is_sweep:
        if rep["records"] != rep["runs"]:
            problems.append(f"{rep['records']} records stored, expected {rep['runs']}")
        if rep["resume_cached"] != rep["runs"] or rep["resume_executed"] != 0:
            problems.append(
                f"resume served {rep['resume_cached']}/{rep['runs']} from cache "
                f"and simulated {rep['resume_executed']}"
            )
        if reference is not None and rep["digest"] != reference["digest"]:
            problems.append("summary digest differs from the reference")
    else:
        summary = rep["summary"]
        if summary["packets_delivered"] <= 0:
            problems.append("no packet delivered in the measurement window")
        if reference is not None:
            for name in CHECKED_FIELDS:
                if summary[name] != reference[name]:
                    problems.append(
                        f"{name} = {summary[name]!r}, reference {reference[name]!r}"
                    )
    return problems


def reference_entry(workload: Any, rep: Dict[str, Any]) -> Dict[str, Any]:
    """The references.json entry that ``rep`` would satisfy."""
    if workload.is_sweep:
        return {"records": rep["records"], "digest": rep["digest"]}
    return dict(rep["summary"])
