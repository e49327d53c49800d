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

It reports process CPU seconds: the whole pass; the tokenizer's parts,
timed at names that every checkout since the batch front calls (the front,
``_Front``; the per-text ``_SentTokenizer`` init; ``split_sents``; the FSM,
``_SentTokenizer.tokenize``); the NER and the POS steps (the method
``Kernel._labels(self, model, sents, ...)``; a checkout's
``Kernel._word_ids``, which looks up a call's word ids once for both
steps, counts in NER, the step that reads them first), and inside each the
forward alone (``ner_fwd``, ``pos_fwd``: ``SeqLabelModel._forward_logits``),
so the forward and the glue around it are split; and the rest. ``misses``
counts the sentences the FSM tokenized, i.e. those that missed whatever
cache the checkout keeps ahead of the FSM; ``ner_rows`` and ``pos_rows``
count the token rows each model forwarded; ``minflt`` the pass's minor
page faults (``ru_minflt``). The collector's passes, by
generation, are timed through ``gc.callbacks``; they are included in the
layer they interrupt and also shown on their own (``tokenize_gc``: the
passes inside the tokenizer's parts). After the pass it counts the
entries of the worker's caches: the sentence memo, the id map, the token
memo and the surface memo (``memo``, ``ids``, ``tokens``, ``surfaces``:
the kernel's, or a checkout's module-level ``_TOKEN_MEMO`` and
``normalize_surface`` LRU), their sum (``entries``), the doorkeeper's
insertions and set bits (``door``, ``door_bits``: the kernel's ``_door``,
which admits a word to the token memo and the id map at its second
sighting; 0 in a checkout without one) and the kernel's ``_CACHE_ENTRIES``
(``bound``, 0 in a checkout without one).
The summary gives, per column, each side's median and quartiles and the
pairs in which the change read lower, with ``seeds`` and ``quartiles``
from ``ab_pairs.py``; then the same for each timed column's share of its
run's ``total``. The host's speed drifts between runs by as much as a
layer change (two identical trees read ``total`` 11% apart), and a share
cancels that drift.
It imports ``perfbench/workloads.py`` and ``perfbench/run.py`` read-only
from this checkout and edits nothing.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from ab_pairs import quartiles, seeds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BATCH_TURNS = 512  # the job's tag_batch_size
TOKENIZE = ["front", "init", "split", "fsm"]
COLUMNS = ["total", *TOKENIZE, "ner", "pos", "ner_fwd", "pos_fwd", "rest", "gc0", "gc1", "gc2",
           "gc2_passes", "tokenize_gc", "misses", "ner_rows", "pos_rows", "minflt",
           "memo", "ids", "tokens", "surfaces", "entries", "door", "door_bits", "bound"]
COUNTS = {"gc2_passes", "misses", "ner_rows", "pos_rows", "minflt", "memo", "ids", "tokens",
          "surfaces", "entries", "door", "door_bits", "bound"}
SHARES = [k for k in COLUMNS if k not in COUNTS and k != "total"]


def child(root: str, workload: str, seed: int) -> dict:
    """One pass of the fused stage from ``root``, in this process."""
    import gc
    import resource
    import time

    sys.path[:0] = [root, str(PERFBENCH)]
    import ray.data  # noqa: F401  (the modules a Ray Data worker holds)
    import run
    import workloads

    from lingvo__postagger_ner_ru_dnn_ray.model.tagger import SeqLabelModel
    from lingvo__postagger_ner_ru_dnn_ray.stages import fused
    from lingvo__postagger_ner_ru_dnn_ray.stages import kernel as kernel_mod
    from lingvo__postagger_ner_ru_dnn_ray.stages import linking
    from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import Kernel
    from lingvo__postagger_ner_ru_dnn_ray.textkit import tokenizer as tz

    clock = time.process_time
    acc = dict.fromkeys(COLUMNS, 0.0)
    layer = [None]

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            layer[0] = key
            try:
                return fn(*args, **kwargs)
            finally:
                layer[0] = None
                acc[key] += clock() - t0
        return wrapper

    def fsm(tk, sent, tokenize=tz._SentTokenizer.tokenize):
        acc["misses"] += 1
        return tokenize(tk, sent)

    tz._Front.__init__ = timed("front", tz._Front.__init__)
    tz._SentTokenizer.__init__ = timed("init", tz._SentTokenizer.__init__)
    tz.split_sents = timed("split", tz.split_sents)
    tz._SentTokenizer.tokenize = timed("fsm", fsm)
    ner, pos = timed("ner", Kernel._labels), timed("pos", Kernel._labels)
    Kernel._labels = lambda self, model, *a: (
        ner if model is self.ner_model else pos)(self, model, *a)
    if hasattr(Kernel, "_word_ids"):
        Kernel._word_ids = timed("ner", Kernel._word_ids)

    def forward(model, ids, fwd=SeqLabelModel._forward_logits):
        t0 = clock()
        try:
            return fwd(model, ids)
        finally:
            if layer[0] in ("ner", "pos"):
                acc[f"{layer[0]}_fwd"] += clock() - t0
                acc[f"{layer[0]}_rows"] += ids.size

    SeqLabelModel._forward_logits = forward

    gc_t0 = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            gc_t0[0] = clock()
        else:
            dt = clock() - gc_t0[0]
            acc[f"gc{info['generation']}"] += dt
            acc["gc2_passes"] += info["generation"] == 2
            if layer[0] in TOKENIZE:
                acc["tokenize_gc"] += dt

    wl = run.WORKLOADS[workload]
    table = workloads.transcripts(wl.turns, seed, unique=wl.unique)
    table = table.select(["conv_id", "turn_idx", "text"])
    fused.kg_stage_fn(table.slice(0, 0))  # build the stage, untimed
    for k in acc:
        acc[k] = 0.0
    gc.callbacks.append(on_gc)
    flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = clock()
    for ofs in range(0, table.num_rows, BATCH_TURNS):
        fused.kg_stage_fn(table.slice(ofs, BATCH_TURNS))
    acc["total"] = clock() - t0
    acc["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
    gc.callbacks.remove(on_gc)
    acc["rest"] = acc["total"] - sum(acc[k] for k in (*TOKENIZE, "ner", "pos"))
    kern = fused._STAGES[None].kernel
    tokens = kern._tokens if hasattr(kern, "_tokens") else tz._TOKEN_MEMO
    surfaces = (len(kern._surfaces) if hasattr(kern, "_surfaces")
                else linking.normalize_surface.cache_info().currsize)
    acc.update(memo=len(kern._memo), ids=len(kern._ids), tokens=len(tokens), surfaces=surfaces,
               bound=getattr(kernel_mod, "_CACHE_ENTRIES", 0))
    acc["entries"] = acc["memo"] + acc["ids"] + acc["tokens"] + acc["surfaces"]
    if (door := getattr(kern, "_door", None)) is not None:
        acc.update(door=door.inserts, door_bits=int.from_bytes(door.bits, "little").bit_count())
    return acc


def fmt(key: str, v: float) -> str:
    return f"{v:.0f}" if key in COUNTS else f"{v:.3f}"


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
                  + " ".join(f"{k}={fmt(k, rec[k])}" for k in COLUMNS), flush=True)
    n = len(sides["parent"])
    print(f"{args.workload}: {n} pairs, median (q1-q3) a side (process CPU s; gc inside "
          "the layers); won: pairs in which the change read lower")
    summarize(sides, COLUMNS, lambda r, k: r[k], fmt)
    print("share of total, per run")
    summarize(sides, SHARES, lambda r, k: r[k] / r["total"], lambda k, v: f"{v:.1%}")


def summarize(sides: dict, cols: list[str], get, show) -> None:
    """One line per column: each side's median (q1-q3) of ``get(rec, col)``,
    the change's median relative to the parent's, and the pairs won."""
    n = len(sides["parent"])
    for k in cols:
        pv, cv = [get(r, k) for r in sides["parent"]], [get(r, k) for r in sides["change"]]
        (p1, p2, p3), (c1, c2, c3) = quartiles(pv), quartiles(cv)
        rel = f"{(c2 - p2) / p2:+.1%}" if p2 else "n/a"
        won = sum(c < p for p, c in zip(pv, cv))
        print(f"  {k:11s} {f'{show(k, p2)} ({show(k, p1)}-{show(k, p3)})':>23s} ->"
              f" {f'{show(k, c2)} ({show(k, c1)}-{show(k, c3)})':>23s} {rel:>7s} {won}/{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
