"""Alternating perfbench pairs between two checkouts of this repository.

    python scripts/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload kg_unique \\
        --seeds 11-14 21-26 [--trace 0]

For each seed it runs ``perfbench/run.py`` once from each root, for the
``run_seconds`` that ``BENCHMARK.json`` declares, one run after the
other: the parent goes first in pairs 0, 2, 4, … and the change in pairs
1, 3, 5, …, so that a drift in the host's speed does not favour one
side. The run length is not an option, because the claim rule compares
both sides at the benchmark's own length. ``--trace 1`` with two seeds gives a parent/change/change/parent
traced window.

It prints every session's ``job_cpu_s``, ``job_steal_s`` and metrics as
the runs finish, then, for every metric of the result lines that
``BENCHMARK.json`` declares, each side's median and quartiles and the
number of pairs the change won (strictly better in the declared
direction). A run reports the median of its sessions, so a run that fits
two reports their mean, and a second session reads ``peak_rss_mb`` about
10 MB above a first; so the summary also gives each side's runs by
session count and the same table over each run's first session alone,
which compares both sides at one session level. A run that dies without
a result line has its whole stderr printed, is named in the summary and
is left out of its side's medians and of the pairs counted. It only
invokes perfbench and writes nothing under either root except what
perfbench itself writes. Exit status 1 if any run died or was not
correct.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

RUN_TIMEOUT_S = 900


def seeds(specs: list[str]) -> list[int]:
    """``["11-14", "21"]`` → [11, 12, 13, 14, 21]."""
    out = []
    for spec in specs:
        a, _, b = spec.partition("-")
        out += range(int(a), int(b or a) + 1)
    return out


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run from ``root``: its session records and result
    (None, with its stderr printed, if it printed no result line)."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sessions, result = [], None
    for line in p.stdout.splitlines():
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if "session" in rec:
            sessions.append(rec)
        elif "metrics" in rec:
            result = rec
    if result is None:
        sys.stderr.write(p.stderr)
    return {"sessions": sessions, "result": result}


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    """q1, median, q3, each within the observed values."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout root of the parent")
    ap.add_argument("change", type=Path, help="checkout root of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges, e.g. 11-14 21")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok, dead = True, []
    for i, seed in enumerate(seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run(roots[side], args.workload, seed, seconds, args.trace)
            runs[side].append(r)
            for s in r["sessions"]:
                print(f"pair {i} seed {seed} {side:6} session {s['session']}"
                      f" ok={s['ok']} job_cpu_s={s.get('job_cpu_s', 0):.3f}"
                      f" job_steal_s={s.get('job_steal_s', 0):.3f}"
                      f" setup_s={s.get('setup_s', 0):.3f}"
                      f" turns_per_cpu_s={s.get('turns_per_cpu_s', 0):.1f}"
                      f" peak_rss_mb={s.get('peak_rss_mb', 0):.1f}", flush=True)
            if r["result"] is None:
                dead.append(f"pair {i} seed {seed} {side}")
                print(f"pair {i} seed {seed} {side:6} died without a result line", flush=True)
                continue
            ok &= r["result"]["correct"]
            m = r["result"]["metrics"]
            print(f"pair {i} seed {seed} {side:6} correct={r['result']['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)

    # one {metric: value} per pair and side, None for a run without one
    results = {side: [r["result"] and {k: v["value"] for k, v in r["result"]["metrics"].items()}
                      for r in rs] for side, rs in runs.items()}
    firsts = {side: [r["sessions"][0] if r["result"] and r["sessions"]
                     and r["sessions"][0]["ok"] else None for r in rs]
              for side, rs in runs.items()}
    n = sum(1 for p, c in zip(results["parent"], results["change"]) if p and c)
    print(f"\n{args.workload}, {n} complete pairs, seconds={seconds}, trace={args.trace}, "
          f"every finished run correct: {ok}")
    if dead:
        print(f"died without a result (left out below): {'; '.join(dead)}")
    print_table([k for k in next((r for r in results["change"] if r), {}) if k in better],
                better, results["parent"], results["change"])
    counts = {side: Counter(len(r["sessions"]) for r in rs if r["result"])
              for side, rs in runs.items()}
    print("runs by session count: " + "; ".join(
        f"{side} " + ", ".join(f"{c} of {k}" for k, c in sorted(cs.items()))
        for side, cs in counts.items()))
    print("first session of each run:")
    print_table([k for k in better if any(s and k in s for s in firsts["change"])],
                better, firsts["parent"], firsts["change"])
    return 0 if ok and not dead else 1


def print_table(names: list[str], better: dict[str, str], parent: list[dict | None],
                change: list[dict | None]) -> None:
    """Per metric of ``names``: each side's median (q1-q3) over its values,
    the medians' delta and the pairs the change won; ``parent`` and
    ``change`` hold one {metric: value} per pair, None where there is none."""
    pairs = [(p, c) for p, c in zip(parent, change) if p and c]
    n = len(pairs)
    print(f"{'metric':32} {'parent median (q1-q3)':>28} {'change median (q1-q3)':>28}"
          f" {'delta':>8} {'won':>6}")
    for k in names:
        pv, cv = ([r[k] for r in rs if r] for rs in (parent, change))
        if not pv or not cv:
            continue
        sign = 1 if better[k] == "higher" else -1
        won = sum(sign * (c[k] - p[k]) > 0 for p, c in pairs)
        (p1, p2, p3), (c1, c2, c3) = quartiles(pv), quartiles(cv)
        delta = f"{(c2 - p2) / p2:+.1%}" if p2 else "n/a"
        print(f"{k:32} {f'{p2:.4g} ({p1:.4g}-{p3:.4g})':>28}"
              f" {f'{c2:.4g} ({c1:.4g}-{c3:.4g})':>28} {delta:>8} {f'{won}/{n}':>6}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
