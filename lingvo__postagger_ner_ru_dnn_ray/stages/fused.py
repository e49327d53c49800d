"""Fused per-turn stage: tokenize → tag → extract triples → link, in ONE
``map_batches`` of stateless tasks (``kg_stage_fn``).

The stage is the per-turn kernel (stages/kernel.py, ``Kernel.link_texts``:
POS runs only on sentences where a triple can form) behind a per-process
turn memo: every step after the read is a pure per-turn function, so the
whole chain runs over Python structures and builds ONE Arrow table at the
end. The memo, the batching and Ray must add nothing to the kernel:
tests/test_pipeline_ray.py::test_fused_equals_modular checks the stage
against the single-process oracle, which runs the same kernel over the
whole table at once.
"""
from __future__ import annotations

import gc
import os

import pyarrow as pa
import ray

from .kernel import Kernel, linked_table

_MEMO_STATS_ACTOR = "graft_kg_memo_stats"


class _MemoStats:
    """Cluster-wide memo-hit counters (opt-in, GRAFT_KG_MEMO_STATS=1): the
    fused stage's turn-memo hit rate, so perfbench reports the MEASURED
    share of turns the stage computed in each traced job. Workers post
    per-batch deltas fire-and-forget; the driver reads the aggregate after
    the job (approximate by a few in-flight batches)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.turns = 0          # non-empty turns seen
        self.unique = 0         # after WITHIN-batch dedup
        self.computed = 0       # full chain actually ran (cross-batch memo miss)

    def add(self, turns: int, unique: int, computed: int) -> None:
        self.turns += turns
        self.unique += unique
        self.computed += computed

    def get(self) -> dict:
        return {
            "turns": self.turns,
            "unique_in_batch": self.unique,
            "computed": self.computed,
            "turn_memo_hit_rate": round(1 - self.computed / self.turns, 4) if self.turns else None,
            "unique_compute_fraction": round(self.computed / self.turns, 4) if self.turns else None,
        }


def start_memo_stats():
    """Driver-side: create (or fetch) the named counter actor. Pair with
    os.environ['GRAFT_KG_MEMO_STATS']='1' set BEFORE ray.init so workers
    inherit the flag and post their deltas."""
    return (
        ray.remote(num_cpus=0)(_MemoStats)
        .options(name=_MEMO_STATS_ACTOR, get_if_exists=True)
        .remote()
    )


def _memo_stats_handle():
    if os.environ.get("GRAFT_KG_MEMO_STATS") != "1":
        return None
    try:
        return ray.get_actor(_MEMO_STATS_ACTOR)
    except Exception:
        return None  # flag set but no driver-side actor: counters off


class KgStage:
    """transcript rows -> linked triple rows (both DNNs + the entity
    dictionary, loaded once, and the turn memo)."""

    def __init__(self, dict_ref=None, artifact_dir: str | None = None,
                 input_type_processor: str | None = None):
        """``dict_ref``: an object ref of a ``build_linking_dict()`` map;
        default: build it here. ``input_type_processor``: NAME of a
        registered plug-in (plugins.input_type_processor) — the
        TokenizerConfig PosTaggerInputTypeProcessor slot; names (not
        callables) so the kwarg serializes cleanly into task arguments."""
        from ..plugins import input_type_processor as _resolve

        lookup = None if dict_ref is None else ray.get(dict_ref)
        self.kernel = Kernel(artifact_dir, lookup, _resolve(input_type_processor))
        # per-worker turn memo: the whole chain is a pure function of the
        # turn TEXT (conv/turn are only output keys), and real transcript
        # streams are duplicate-heavy ("ok", "thanks"; perfbench measures a
        # hit ratio of 0.148 on kg_dup and 0 on kg_unique), so identical
        # turns replay cached rows instead of re-running the kernel. Bounded
        # (cleared whole when full); deterministic, so resume/retry replay
        # is unaffected.
        self._turn_memo: dict[str, list[tuple]] = {}
        self._memo_stats = _memo_stats_handle()

    def __call__(self, batch: pa.Table) -> pa.Table:
        conv = batch.column("conv_id").to_pylist()
        turn = batch.column("turn_idx").to_pylist()
        text = batch.column("text").to_pylist()

        memo = self._turn_memo
        todo = list({x for x in text if x and x not in memo})
        if todo:
            if len(memo) + len(todo) > (1 << 18):
                # after a clear, every text this batch needs must be
                # recomputed — not just the previously-missing ones
                # (dropping the rest would KeyError below; hit in practice
                # at ≥2^18 unique turns per worker)
                memo.clear()
                todo = list({x for x in text if x})
            # sentences of ALL unique texts tag in one predict_batch per model
            for x, sents in zip(todo, self.kernel.link_texts(todo)):
                memo[x] = [(si,) + row for si, rows in enumerate(sents) for row in rows]
        if self._memo_stats is not None:
            uniq = len({x for x in text if x})
            self._memo_stats.add.remote(
                sum(1 for x in text if x), uniq, len(todo)
            )
        return linked_table([(c, t) + row for c, t, x in zip(conv, turn, text) if x
                             for row in memo[x]])


_STAGES: dict[str | None, KgStage] = {}


def kg_stage_fn(batch: pa.Table, artifact_dir: str | None = None) -> pa.Table:
    """Stateless-task form of KgStage: this worker process's stage for
    ``artifact_dir``, built on first use. Ray reuses task workers across
    executions, so a warm cluster loads the models once per process, and
    the scheduler spreads tasks over every free CPU with no pool size.
    Keyed by ``artifact_dir``, so neither the models nor the turn memo are
    shared between weight sources.

    Once the stage is built, ``gc.freeze()`` moves every object the
    process holds (models, vocabularies, dictionary, imported modules)
    out of the collector's generations: they live as long as the process,
    and a full collection would otherwise walk them all again. Objects
    made later, memo entries included, stay collectable."""
    stage = _STAGES.get(artifact_dir)
    if stage is None:
        stage = _STAGES[artifact_dir] = KgStage(artifact_dir=artifact_dir)
        gc.freeze()
    return stage(batch)
