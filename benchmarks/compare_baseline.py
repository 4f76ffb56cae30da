"""Compare a fresh pytest-benchmark JSON run against a committed baseline.

Usage::

    python benchmarks/compare_baseline.py BASELINE.json CURRENT.json \
        [--max-ratio 3.0] [--max-ratio-for NAME=RATIO ...]

Exits non-zero when any benchmark present in both files regressed by more
than ``--max-ratio`` on median time.  The median, not the mean: one host
stall in one round can move a bench's mean by several times while its
median holds, so a mean gate fails on noise the code did not cause.
``--max-ratio-for`` overrides the
threshold for one benchmark (repeatable) — microsecond-scale benches on
shared CI runners need more headroom than millisecond ones.  Benchmarks
missing from either side are reported but never fail the check (machines
differ; new benches have no history yet).  ``make bench-save`` /
``make bench-compare`` wrap this.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _medians(path: Path) -> dict[str, float]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read benchmark JSON {path}: {exc}")
    return {b["name"]: float(b["stats"]["median"])
            for b in data.get("benchmarks", [])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when current median exceeds baseline "
                             "median by more than this factor (default 3.0)")
    parser.add_argument("--max-ratio-for", action="append", default=[],
                        metavar="NAME=RATIO",
                        help="per-benchmark threshold override "
                             "(repeatable)")
    args = parser.parse_args(argv)
    overrides: dict[str, float] = {}
    for spec in args.max_ratio_for:
        name, sep, value = spec.partition("=")
        if not sep:
            sys.exit(f"error: --max-ratio-for expects NAME=RATIO, "
                     f"got {spec!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            sys.exit(f"error: bad ratio in --max-ratio-for {spec!r}")

    baseline = _medians(args.baseline)
    current = _medians(args.current)
    failures = []
    width = max((len(n) for n in current), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in sorted(current):
        median = current[name]
        base = baseline.get(name)
        if base is None:
            print(f"{name:<{width}}  {'(new)':>12}  {median:>12.3e}      -")
            continue
        ratio = median / base if base > 0 else float("inf")
        limit = overrides.get(name, args.max_ratio)
        flag = ""
        if ratio > limit:
            failures.append((name, ratio))
            flag = f"  REGRESSION (>{limit:g}x)"
        print(f"{name:<{width}}  {base:>12.3e}  {median:>12.3e}  "
              f"{ratio:5.2f}{flag}")
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<{width}}  {baseline[name]:>12.3e}  {'(absent)':>12}"
              f"      -")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond their "
              f"threshold vs the baseline median.")
        return 1
    print("\nno regressions beyond the threshold.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
