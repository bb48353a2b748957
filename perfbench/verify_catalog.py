"""Runs every catalog entry once and reports the ones that fail.

Usage (from the repository root):

    python3 perfbench/verify_catalog.py            # all slots, two processes
    python3 perfbench/verify_catalog.py SLOT ...   # these slots, JSON to stdout

With no arguments it prints, for each slot, the catalog indices whose op
raised or missed its oracle, compares them with ``workloads.EXCLUDED``
and exits 1 if the two differ.  It writes no file: an entry leaves the
timed workloads only by an edit of ``EXCLUDED``.  Run it when a catalog
changes; at a later commit a newly failing entry is a regression that
the benchmark must show, not hide.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# the costly slots, about half of the total work
HEAVY = ("kt-bss", "cauchy", "simo-l1", "simo-l2", "simo-l3", "simo-l4", "avs")


def verify(slots) -> dict:
    import logint
    import logint.cli
    from worker import Runner

    out_dir = run.OUT / f"verify-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(logint, str(out_dir))
    bad = {}
    for slot in slots:
        t0 = time.perf_counter()
        cat = workloads.catalog(slot)
        fails = [i for i, op in enumerate(cat) if run.check(op, runner.run(op))[1:] != (0, 0)]
        if fails:
            bad[slot] = fails
        print(f"{slot:16s} {len(cat):5d} entries {len(fails):3d} failing "
              f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr, flush=True)
    shutil.rmtree(out_dir)
    return bad


def main(argv) -> int:
    run.OUT.mkdir(exist_ok=True)
    if argv:
        print(json.dumps(verify(argv)))
        return 0
    groups = [list(HEAVY), [s for s in workloads.SLOTS if s not in HEAVY]]
    procs = [subprocess.Popen([sys.executable, __file__, *g], stdout=subprocess.PIPE, text=True)
             for g in groups]
    bad = {}
    for p in procs:
        out, _ = p.communicate()
        if p.returncode != 0:
            return 1
        bad.update(json.loads(out))
    failing = {s: tuple(bad[s]) for s in workloads.SLOTS if s in bad}
    print(json.dumps(failing))
    if failing != workloads.EXCLUDED:
        print(f"failing entries differ from EXCLUDED {workloads.EXCLUDED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
