"""Compare two results files written by ``perfbench/run.py``.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Prints, per workload and end-to-end metric, both medians and their ratio;
for the metrics BENCHMARK.json bounds it also prints the bound and flags a
metric that got worse by more than it.  Runs measured with different
summation backends (``rieszbounds.BACKEND``) are not comparable and are
refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _medians(doc: dict) -> dict:
    return {(r["workload"], name): m["value"]
            for r in doc["results"] if not r["trace"]
            for name, m in r["metrics"].items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    b_backend = base["provenance"].get("backend")
    n_backend = new["provenance"].get("backend")
    if b_backend != n_backend:
        print(f"refusing to compare: backend {b_backend!r} vs {n_backend!r}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    old, cur = _medians(base), _medians(new)
    worse = 0
    print(f"{'workload':16s} {'metric':17s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}")
    for key in sorted(old.keys() & cur.keys()):
        workload, name = key
        ratio = cur[key] / old[key] if old[key] else float("nan")
        line = (f"{workload:16s} {name:17s} {old[key]:12.6g} "
                f"{cur[key]:12.6g} {ratio:9.4f}")
        if name in bounds:
            bound, better = bounds[name]
            regressed = (ratio > 1 + bound if better == "lower"
                         else ratio < 1 - bound)
            worse += regressed
            line += f" {bound:6.2f}{'  WORSE' if regressed else ''}"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
