#!/usr/bin/env python3
"""Rewrite benchmarks/digests.json from the current program.

The digests pin the exact standard output of the analyze and compare
commands on the base graphs, and of the sweep-dedup workload's
min-search.  Seeds only rename vertices, which changes no answer, so
the same digests hold for every seed.  Regenerate them only when an
output change is intended, and say so in the change that does it:

    python3 benchmarks/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from checks import digest


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.fresh_cli()
    workdir = run.HERE / ".work" / "record-digests"
    workdir.mkdir(parents=True, exist_ok=True)
    unpinned = {"min-search": None,
                "analyze-large": [None] * len(run.inputs.ANALYZE_GRAPHS),
                "compare-pairs": [None] * len(run.inputs.COMPARE_SIZES)}
    out = {}
    try:
        for name in ("analyze-large", "compare-pairs", "sweep-dedup"):
            work = run.WORKLOADS[name](run.DEFAULT_SEED, workdir, unpinned)
            got = []
            for op in work.ops:
                _, problems, text = run.run_op(cli, op)
                if problems:
                    print(f"{' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                got.append(digest(text))
            if name == "sweep-dedup":
                out["min-search"] = got[1]
            else:
                out[name] = got
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "digests.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
