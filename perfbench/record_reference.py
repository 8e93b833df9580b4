"""Record the reference outputs that the benchmark compares against.

    python3 perfbench/record_reference.py

Runs every operation of every workload once on the reference seed and
writes perfbench/reference.json.  Rerun only when a change of results is
intended; a refactor must reproduce the recorded values.
"""

from __future__ import annotations

import json
import os
import shutil

from run import OUT, _import_program


def main() -> None:
    _import_program()
    import workloads

    ops = {}
    for name in workloads.WORKLOADS:
        work_dir = os.path.join(OUT, f"reference-{os.getpid()}")
        try:
            w = workloads.build_workload(name, workloads.REFERENCE_SEED, "full", work_dir, use_reference=False)
            ops.update(workloads.observations(w))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": workloads.REFERENCE_SEED, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
