"""Compare two sets of benchmark result files against the BENCHMARK.json bounds.

    python perf/compare.py --base base1.json base2.json base3.json \\
                           --new new1.json new2.json new3.json

Each file is what ``perf/run.py --out`` writes.  For every workload and
metric found in both sets the tool prints each side's median and
quartiles, the relative change of the medians, and a verdict:

* ``worse`` / ``better`` — the median moved the wrong / right way by more
  than the metric's bound;
* ``same`` — it moved by no more than the bound;
* ``unresolved`` — either side's quartile spread (as a share of its
  median) exceeds the bound, so a move within it cannot be told from
  noise; ``better`` or ``worse`` is still given when every run of one side
  beats every run of the other and, for ``worse``, by more than the bound.

Per-layer metrics have no bound and get no verdict.  Exit status is 1 iff
any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` of a few runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    worse_by = sign * (nm - bm) / abs(bm)
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm))
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    if spread > bound:
        if all_better:
            return "better"
        if all_worse and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def load(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values across the given result files."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for workload, result in doc["workloads"].items():
            for metric, m in result["metrics"].items():
                out.setdefault(workload, {}).setdefault(metric, []).append(float(m["value"]))
    return out


def compare(base_paths: Sequence[str], new_paths: Sequence[str], spec: Optional[dict] = None) -> List[dict]:
    """One row per workload x metric present on both sides."""
    if spec is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(base_paths), load(new_paths)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in sorted(set(base[workload]) & set(new[workload])):
            info = meta.get(metric, {})
            b, n = base[workload][metric], new[workload][metric]
            bm, nm = quartiles(b)[1], quartiles(n)[1]
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": info.get("unit", ""),
                "base": quartiles(b),
                "new": quartiles(n),
                "delta": (nm - bm) / abs(bm) if bm else float("nan"),
                "bound": info.get("bound"),
                "verdict": (
                    verdict(b, n, info["better"], info["bound"]) if "bound" in info else "-"
                ),
            })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    ap.add_argument("--new", nargs="+", required=True, help="result files of the change")
    args = ap.parse_args(argv)
    rows = compare(args.base, args.new)
    print(f"{'workload':<20} {'metric':<34} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    for r in rows:
        (b1, bm, b3), (n1, nm, n3) = r["base"], r["new"]
        base = f"{bm:.5g} [{b1:.5g}, {b3:.5g}]"
        new = f"{nm:.5g} [{n1:.5g}, {n3:.5g}]"
        bound = f"{r['bound']:.0%}" if r["bound"] is not None else "-"
        print(
            f"{r['workload']:<20} {r['metric']:<34} {base:>34} {new:>34} "
            f"{r['delta']:>+8.2%} {bound:>6}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
