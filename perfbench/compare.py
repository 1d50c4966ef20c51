#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of result records written by ``run.py`` (or
single record files). Untraced records are grouped by workload; for every
workload and end-to-end metric of ``BENCHMARK.json`` the tool prints each
side's median and quartiles, the change of the medians, and a verdict:

- ``worse``: the new median is worse than the base median by more than the
  metric's bound;
- ``better``: the new side wins at least nine tenths of the runs paired by
  seed, and its median improves by more than the base side's own spread
  (quartile distance over median);
- ``unresolved``: the base spread is wider than the bound, so a change within
  it cannot be told from noise, unless every new run beats every base run
  (then ``better``);
- ``same``: none of these.

``failed_frac`` (failed ops over attempted ops, summed over a side's runs)
is compared too. So are the INT8 quality figures of ``deploy``
(``accuracy_drop``, ``int8_rel_err``). They repeat exactly for a seed, so they
are paired by seed, and any rise on any seed is ``worse``; with no seed on
both sides they are ``unresolved``. The exit status is 1 when any metric is
``worse`` or the new side fails a larger share of its ops, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Figures that are a function of the seed alone, lower is better.
SEEDED_LOWER = ("accuracy_drop", "int8_rel_err")


def load_results(path: Path) -> dict[str, list[dict]]:
    """Untraced records under ``path``, grouped by workload."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict[str, list[dict]] = defaultdict(list)
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0:
            groups[rec["workload"]].append(rec)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and relative change of the medians (positive = worse).

    ``base`` and ``new`` map seed to value."""
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(list(base.values()))
    nmed = statistics.median(new.values())
    scale = abs(bmed) or 1.0
    worse_by = sign * (nmed - bmed) / scale
    spread = (bq3 - bq1) / scale
    all_better = all(sign * (n - b) < 0 for n in new.values() for b in base.values())
    if spread > bound:
        return ("better" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > spread:
        return "better", worse_by
    return "same", worse_by


def seeded_verdict(base: dict[int, float], new: dict[int, float]) -> tuple[str, float]:
    """Verdict on a figure that repeats exactly for a seed: ``worse`` if it
    rose on any seed both sides ran, and the largest rise."""
    seeds = base.keys() & new.keys()
    if not seeds:
        return "unresolved", 0.0
    rise = max(new[s] - base[s] for s in seeds)
    if rise > 0:
        return "worse", rise
    return ("better" if rise < 0 else "same"), rise


def failed_frac(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]], spec: dict) -> tuple[list[str], bool]:
    lines, regressed = [], False
    fmt = "{:<8} {:<14} {:>30} {:>30} {:>9}  {}"
    lines.append(fmt.format("workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict"))
    for workload in sorted(base.keys() | new.keys()):
        b_recs, n_recs = base.get(workload, []), new.get(workload, [])
        if not b_recs or not n_recs:
            lines.append(f"{workload:<8} missing on the {'new' if b_recs else 'base'} side")
            regressed = True
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            b = {r["seed"]: r["metrics"][name] for r in b_recs if name in r["metrics"]}
            n = {r["seed"]: r["metrics"][name] for r in n_recs if name in r["metrics"]}
            if not b or not n:
                lines.append(fmt.format(workload, name, "-", "-", "-", "unresolved"))
                continue
            v, change = verdict(b, n, m["better"], m["bound"])
            regressed |= v == "worse"
            cells = []
            for side in (b, n):
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            lines.append(fmt.format(workload, name, *cells, f"{100 * change:+.1f}%", v))
        for name in SEEDED_LOWER:
            b = {r["seed"]: r["metrics"][name] for r in b_recs if name in r["metrics"]}
            n = {r["seed"]: r["metrics"][name] for r in n_recs if name in r["metrics"]}
            if not b and not n:
                continue
            v, rise = seeded_verdict(b, n)
            regressed |= v == "worse"
            cells = [f"{statistics.median(side.values()):.5g}" if side else "-" for side in (b, n)]
            lines.append(fmt.format(workload, name, *cells, f"{rise:+.3g}", v))
        fb, fn = failed_frac(b_recs), failed_frac(n_recs)
        v = "worse" if fn > fb else ("better" if fn < fb else "same")
        regressed |= v == "worse"
        lines.append(fmt.format(workload, "failed_frac", f"{fb:.4g}", f"{fn:.4g}", "", v))
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(load_results(args.base), load_results(args.new), spec)
    print("\n".join(lines))
    print(
        "# change is the new median against the base median; positive is worse. For "
        + ", ".join(SEEDED_LOWER)
        + " it is the largest rise on one seed."
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
