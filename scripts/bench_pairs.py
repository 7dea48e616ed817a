#!/usr/bin/env python3
"""Compare a parent commit with the working tree on the benchmark, in pairs.

    python3 scripts/bench_pairs.py --parent HEAD --seeds 1801 1802 ... --out BENCH_PR18.json

The parent is exported with `git archive` into a temporary directory. For
each seed and each workload of `BENCHMARK.json`, `perfbench/run.py --trace 0`
runs for the benchmark's `run_seconds` once on the export and once on the
working tree; which side runs first alternates from pair to pair. After each
pair the first round's artifacts of the two sides are compared byte for byte.

The report holds, per workload and end-to-end metric of `BENCHMARK.json`:
each side's median, minimum and inter-quartile range, the ratio of the
medians (change / parent), the pairs the change won, and the per-seed values.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# first-round outputs that must match between parent and change
ARTIFACTS = (
    "labeled-*.jsonl", "labeled-*.jsonl.stats.json", "run/training_report.json",
    "run/checkpoint_best.json", "run/checkpoint_final.json",
    "sums-*/summaries.jsonl", "eval-*/evaluation_report.json",
)


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the extraction filter exists from Python 3.11.4 and 3.10.12 on; the
        # archive is the repository's own, so a plain extraction is safe before
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced run, with the detail line's BLAS and
    numpy facts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench failed in {checkout} ({workload}, seed {seed}):\n{proc.stderr[-2000:]}")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    result["blas_threads"] = detail["blas_threads"]
    result["numpy_version"] = detail["numpy_version"]
    return result


def artifact_digests(checkout: Path, workload: str) -> dict[str, str]:
    """The SHA-256 of every first-round artifact; raises if a pattern of
    ARTIFACTS matches no file, so a pair never counts as identical unseen."""
    first = checkout / ".perfbench_work" / workload / "round-0"
    digests = {}
    for pattern in ARTIFACTS:
        paths = sorted(first.glob(pattern))
        if not paths:
            raise RuntimeError(f"no {pattern} under {first}")
        digests |= {
            str(path.relative_to(first)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths
        }
    return digests


def spread(values: list[float]) -> dict:
    """Median, minimum and the distance between the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 4), "min": round(min(values), 4),
            "iqr": round(q3 - q1, 4)}


def summarize(lines: list[dict], metrics: list[dict]) -> dict:
    """Per workload: correctness, failures, artifact identity and one summary
    per end-to-end metric. `lines` are the records of `run_pairs`: workload,
    seed, side ("parent" or "change"), result, and `identical` on the change's
    record."""
    out = {}
    for workload in dict.fromkeys(line["workload"] for line in lines):
        runs = [line for line in lines if line["workload"] == workload]
        by_side = {
            side: {line["seed"]: line["result"] for line in runs if line["side"] == side}
            for side in ("parent", "change")
        }
        seeds = sorted(by_side["parent"].keys() & by_side["change"].keys())
        summary = {}
        for spec in metrics:
            name, higher = spec["name"], spec["better"] == "higher"
            values = {
                side: [by_side[side][s]["metrics"][name]["value"] for s in seeds]
                for side in ("parent", "change")
            }
            parent, change = values["parent"], values["change"]
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            summary[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "parent": spread(parent),
                "change": spread(change),
                "ratio_of_medians": round(statistics.median(change) / statistics.median(parent), 3),
                "change_wins": f"{wins}/{len(seeds)}",
                "per_seed": {
                    str(s): {"parent": round(p, 4), "change": round(c, 4)}
                    for s, p, c in zip(seeds, parent, change)
                },
            }
        out[workload] = {
            "runs_correct": all(r["result"]["correct"] for r in runs),
            "failed_operations": sum(r["result"]["failed"] for r in runs),
            "artifacts_byte_identical_per_seed": all(
                r["identical"] for r in runs if r["side"] == "change"
            ),
            "metrics": summary,
        }
    return out


def report(lines: list[dict], benchmark: dict, args) -> dict:
    first = lines[0]["result"] if lines else {}
    return {
        "title": args.title,
        "parent": args.parent,
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}; Python {platform.python_version()}",
        "blas_threads": sorted({t for line in lines for t in line["result"]["blas_threads"]}, key=str),
        "numpy_version": first.get("numpy_version"),
        "method": (
            f"perfbench/run.py --seconds {benchmark['run_seconds']} --trace 0, run from the root of a copy of "
            "each commit; parent and change alternate, and which side runs first alternates per "
            "(seed, workload). Medians and minima are over the seeds; an IQR is the distance between "
            "that side's quartiles; wins counts pairs where the change is better."
        ),
        "seeds": sorted({line["seed"] for line in lines}),
        "untraced": summarize(lines, benchmark["end_to_end"]),
    }


def run_pairs(rev: str, seeds: list[int], workloads: list[str], seconds: float) -> list[dict]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        export(rev, parent)
        for pair, (seed, workload) in enumerate(itertools.product(seeds, workloads)):
            sides = [("parent", parent), ("change", ROOT)]
            results = {
                side: run_once(checkout, workload, seed, seconds)
                for side, checkout in (sides if pair % 2 == 0 else sides[::-1])
            }
            identical = artifact_digests(parent, workload) == artifact_digests(ROOT, workload)
            lines += [
                {"workload": workload, "seed": seed, "side": "parent", "result": results["parent"]},
                {"workload": workload, "seed": seed, "side": "change", "result": results["change"],
                 "identical": identical},
            ]
            print(f"{workload} seed {seed}: correct {[r['correct'] for r in results.values()]}, "
                  f"artifacts identical {identical}", flush=True)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed and workload")
    parser.add_argument("--title", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.parent = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    lines = run_pairs(args.parent, args.seeds, workloads, benchmark["run_seconds"])
    args.out.write_text(json.dumps(report(lines, benchmark, args), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
