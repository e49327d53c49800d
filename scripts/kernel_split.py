"""CPU split of the job's fused stage between two checkouts of this repository.

    python scripts/kernel_split.py PARENT_ROOT CHANGE_ROOT --workload kg_unique \\
        --seeds 1-3

For each seed it runs, once from each root, one in-process fused stage
(``stages.fused.kg_stage_fn``, as a job's worker calls it) over the
perfbench workload's turns in batches of the job's 512. The parent goes
first in pairs 0, 2, 4, … and the change in pairs 1, 3, 5, …. Each run is
a fresh process that imports the package from its root; the stage is built
on an empty batch first, as a worker builds it in the warm-up job, so the
model load is not timed. ``ray.data`` is imported first, so the process
holds the modules a Ray Data worker holds.

It reports process CPU seconds: the whole pass, the tokenizer
(``Kernel._tokenize``), the NER and the POS forwards (``Kernel._labels``)
and the rest. The collector's passes, by generation, are timed through
``gc.callbacks``; they are included in the layer they interrupt and also
shown on their own (``tokenize_gc``: the passes inside the tokenizer).
It imports ``perfbench/workloads.py`` and ``perfbench/run.py`` read-only
from this checkout and edits nothing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BATCH_TURNS = 512  # the job's tag_batch_size
COLUMNS = ["total", "tokenize", "ner", "pos", "rest", "gc0", "gc1", "gc2", "gc2_passes",
           "tokenize_gc"]


def seeds(specs: list[str]) -> list[int]:
    """``["11-14", "21"]`` → [11, 12, 13, 14, 21]."""
    out = []
    for spec in specs:
        a, _, b = spec.partition("-")
        out += range(int(a), int(b or a) + 1)
    return out


def child(root: str, workload: str, seed: int) -> dict:
    """One pass of the fused stage from ``root``, in this process."""
    import gc
    import time

    sys.path[:0] = [root, str(PERFBENCH)]
    import ray.data  # noqa: F401  (the modules a Ray Data worker holds)
    import run
    import workloads

    from lingvo__postagger_ner_ru_dnn_ray.stages import fused
    from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import _NER_MEL, Kernel

    clock = time.process_time
    acc = dict.fromkeys(COLUMNS, 0.0)
    layer = [None]

    def timed(key, fn):
        def wrapper(*args):
            t0 = clock()
            layer[0] = key
            try:
                return fn(*args)
            finally:
                layer[0] = None
                acc[key] += clock() - t0
        return wrapper

    tokenize, labels = Kernel._tokenize, Kernel._labels
    Kernel._tokenize = timed("tokenize", tokenize)
    ner, pos = timed("ner", labels), timed("pos", labels)
    Kernel._labels = staticmethod(lambda model, sents, mel: (ner if mel == _NER_MEL else pos)(
        model, sents, mel))

    gc_t0 = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            gc_t0[0] = clock()
        else:
            dt = clock() - gc_t0[0]
            acc[f"gc{info['generation']}"] += dt
            acc["gc2_passes"] += info["generation"] == 2
            if layer[0] == "tokenize":
                acc["tokenize_gc"] += dt

    wl = run.WORKLOADS[workload]
    table = workloads.transcripts(wl.turns, seed, unique=wl.unique)
    table = table.select(["conv_id", "turn_idx", "text"])
    fused.kg_stage_fn(table.slice(0, 0))  # build the stage, untimed
    for k in acc:
        acc[k] = 0.0
    gc.callbacks.append(on_gc)
    t0 = clock()
    for ofs in range(0, table.num_rows, BATCH_TURNS):
        fused.kg_stage_fn(table.slice(ofs, BATCH_TURNS))
    acc["total"] = clock() - t0
    gc.callbacks.remove(on_gc)
    acc["rest"] = acc["total"] - acc["tokenize"] - acc["ner"] - acc["pos"]
    return acc


def run_one(root: Path, workload: str, seed: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    p = subprocess.run([sys.executable, __file__, "--child", str(root), workload, str(seed)],
                       capture_output=True, text=True, env=env, check=True)
    return json.loads(p.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(child(argv[1], argv[2], int(argv[3]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": [], "change": []}
    for i, seed in enumerate(seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rec = run_one(getattr(args, side), args.workload, seed)
            sides[side].append(rec)
            print(f"pair {i} seed {seed} {side:6s} "
                  + " ".join(f"{k}={rec[k]:.3f}" for k in COLUMNS), flush=True)
    print(f"{args.workload}: median over {len(sides['parent'])} runs a side "
          "(process CPU s; gc inside the layers)")
    for k in COLUMNS:
        a = statistics.median(r[k] for r in sides["parent"])
        b = statistics.median(r[k] for r in sides["change"])
        rel = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {k:10s} {a:8.3f} -> {b:8.3f}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
