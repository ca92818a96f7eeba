#!/usr/bin/env python3
"""Write reference.json, the expected output of every benchmark command.

Run from the repository root, at the commit whose output is the reference:

    python3 perfbench/capture_reference.py

For each ambient it runs the benchmark's command once, with a fresh cache,
and keeps the row fields run.py compares.  It also copies the
``fixtures.list`` rows whose ambient order is that of a sweep-small ambient,
and stops if one of them is missing from that ambient's simply connected
rows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict

import run


def capture(ambient: str, args: tuple) -> list:
    cache = run.WORK / "capture-cache"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "fanoterm.cli", "table", "--group", ambient,
                           *args], cwd=run.ROOT, env=run.child_env(cache), capture_output=True,
                          text=True, check=True)
    shutil.rmtree(cache)
    return [{k: r[k] for k in run.CHECKED_FIELDS} for r in json.loads(proc.stdout)["rows"]]


def main() -> int:
    reference: dict = {"sweep": {}, "full": {}, "fixtures": {}}
    for wl in run.WORKLOADS.values():
        for amb in wl.ambients:
            if amb not in reference[wl.reference]:
                reference[wl.reference][amb] = capture(amb, wl.args)
    shutil.rmtree(run.WORK, ignore_errors=True)
    by_order = {max(r["order"] for r in rows): amb for amb, rows in reference["sweep"].items()}
    fixtures = defaultdict(list)
    text = (run.ROOT / "src" / "fanoterm" / "data" / "fixtures.list").read_text()
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            order, gid, b2, ambient_order = (int(x) for x in line.split())
            if ambient_order in by_order:
                fixtures[by_order[ambient_order]].append([order, gid, b2])
    for amb, rows in fixtures.items():
        present = {(tuple(r["group_id"]), r["b2"]) for r in reference["sweep"][amb]
                   if r["pi1_trivial"]}
        for order, gid, b2 in rows:
            if ((order, gid), b2) not in present:
                raise SystemExit(f"{amb}: fixture ({order},{gid}) b2={b2} not reproduced")
    reference["fixtures"] = dict(sorted(fixtures.items()))
    lines = []
    for section, entries in reference.items():
        lines.append(f" {json.dumps(section)}: {{")
        lines.append(",\n".join(f"  {json.dumps(key)}: [\n   "
                                + ",\n   ".join(json.dumps(row) for row in rows) + "\n  ]"
                                for key, rows in sorted(entries.items())))
        lines.append(" },")
    lines[-1] = " }"
    run.REFERENCE.write_text("{\n" + "\n".join(lines) + "\n}\n")
    print(f"wrote {run.REFERENCE}: {sum(len(r) for r in fixtures.values())} fixture rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
