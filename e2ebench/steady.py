"""Steadiness checker: one workload over a range of seeds.

Runs ``e2ebench/run.py`` once per seed and prints, for every metric, the
median over the runs and the spread (inter-quartile range over the
median, quartiles as :func:`statistics.quantiles` gives them) next to
the metric's bound from ``BENCHMARK.json``, and the spread the same runs
give before their timings are normalised to the nominal host (column
``raw``, from the ``raw metrics:`` line; see :mod:`e2ebench.probe`).
With ``--against`` it also
prints how far each median moved from an earlier summary, in the
metric's worse direction.  Run from the checkout root::

    python3 e2ebench/steady.py --workload point --seeds 0-9 \
        [--seconds 15] [--trace 0] [--out summary.json] [--against old.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    values: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        out = subprocess.run(
            [
                *spec["command"],
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("raw metrics: "):
                for name, value in json.loads(line.split(": ", 1)[1]).items():
                    raw.setdefault(name, []).append(value)
        print(
            f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    previous = {}
    if args.against:
        previous = json.loads(Path(args.against).read_text(encoding="utf-8"))
    summary = {}
    header = ("metric", "median", "spread", "raw", "bound")
    print("\n{:34} {:>12} {:>8} {:>8} {:>6}  drift".format(*header))
    for name, series in values.items():
        median = statistics.median(series)
        entry = {"median": median, "spread": spread(series), "values": series}
        if name in raw:
            entry["raw_spread"] = spread(raw[name])
            entry["raw_values"] = raw[name]
        summary[name] = entry
        bound = metrics.get(name, {}).get("bound")
        line = f"{name:34} {median:12.6g} {entry['spread']:8.4f} "
        line += f"{entry['raw_spread']:8.4f} " if name in raw else f"{'-':>8} "
        line += f"{bound:6.3f}" if bound is not None else f"{'-':>6}"
        if name in previous and previous[name]["median"]:
            change = median / previous[name]["median"] - 1.0
            worse = change if metrics[name]["better"] == "lower" else -change
            line += f"  {worse:+.4f}"
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
