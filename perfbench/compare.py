"""Compare two sets of benchmark results, one row per workload and metric.

The verdict follows the pairing rule of the choosing-metrics method:

* ``improved``: the new side wins at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the base runs' own
  quartile spread;
* ``unresolved``: the base spread is wider than the metric's bound, and
  not every new run beats every base run;
* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``unchanged``: otherwise.

Runs are paired by seed when both sides have the seed, else by order.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_runs(path) -> list[dict]:
    """Result records from a ``--all`` file or a single-run file."""
    data = json.loads(Path(path).read_text())
    return data["runs"] if "runs" in data else [data]


def _by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in runs:
        if r.get("trace") == 0:
            out.setdefault(r["workload"], []).append(r)
    return out


def _pairs(base: list[dict], new: list[dict], metric: str) -> list[tuple[float, float]]:
    new_by_seed = {r["seed"]: r for r in new}
    if all(r["seed"] in new_by_seed for r in base) and len(new_by_seed) == len(new):
        matched = [(b, new_by_seed[b["seed"]]) for b in base]
    else:
        matched = list(zip(base, new))
    return [(b["metrics"][metric]["value"], n["metrics"][metric]["value"]) for b, n in matched]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    gap = spread(base)
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mn - mb) > gap:
        return "improved"
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if mb and gap / abs(mb) > bound and not all_better:
        return "unresolved"
    if mb and sign * (mb - mn) / abs(mb) > bound:
        return "worse"
    return "unchanged"


def report(base_path, new_path, spec: dict) -> str:
    base, new = _by_workload(load_runs(base_path)), _by_workload(load_runs(new_path))
    lines = [f"{'workload':<14} {'metric':<16} {'base median':>12} {'ratio new/base':>15} "
             f"{'base spread':>12} {'bound':>6} {'n':>5}  verdict"]
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            if not all(name in r["metrics"] for r in base[workload] + new[workload]):
                continue
            pairs = _pairs(base[workload], new[workload], name)
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            mb = statistics.median(b)
            ratio = statistics.median(n) / mb if mb else float("nan")
            rel_gap = spread(b) / abs(mb) if mb else float("nan")
            lines.append(
                f"{workload:<14} {name:<16} {mb:>12.5g} {ratio:>15.4f} {rel_gap:>12.4f} "
                f"{m['bound']:>6} {len(b):>2}/{len(n):<2}  "
                f"{verdict(b, n, pairs, m['better'], m['bound'])}  ({m['unit']})")
    missing = sorted(set(base) ^ set(new))
    if missing:
        lines.append(f"only on one side: {', '.join(missing)}")
    return "\n".join(lines)
