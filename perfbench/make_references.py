"""Regenerate ``references.json``: the simulated outputs of the default seed.

Run from the repository root, only when simulated behaviour is meant to
change (a change that only claims speed must leave the references alone)::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import HERE, ROOT, spawn

sys.path.insert(0, str(ROOT / "src"))

from checks import reference_entry  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch_root)
    references = {"seed": DEFAULT_SEED}
    try:
        for name, workload in WORKLOADS.items():
            rep = spawn(name, DEFAULT_SEED, tmp, timeout=600)
            references[name] = reference_entry(workload, rep)
            print(f"{name}: {references[name]}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    with open(HERE / "references.json", "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
