"""Fused per-turn stage: tokenize → tag → extract triples → link, in ONE
``map_batches`` of stateless tasks (``kg_stage_fn``).

The stage is the per-turn kernel (stages/kernel.py, ``Kernel.link_texts``:
POS only where a triple can form, link rows memoized per sentence) plus
the row keys: every step after the read is a pure per-turn function, so
the chain runs over Python structures and builds ONE Arrow table at the
end. The memo, the batching and Ray must add nothing to the kernel:
tests/test_pipeline_ray.py::test_distributed_equals_oracle checks the stage
against the single-process oracle, which runs the same kernel over the
whole table at once.
"""
from __future__ import annotations

import gc

import pyarrow as pa
import ray

from .kernel import Kernel, check_turn_keys, linked_table

_MEMO_STATS_ACTOR = "graft_kg_memo_stats"


class _MemoStats:
    """Cluster-wide memo counters, on while the driver runs this actor
    (``start_memo_stats``): the non-empty turns the stage saw and those it
    computed, i.e. with a sentence that missed the kernel's sentence memo
    (``Kernel.missed_texts``). Workers post per-batch deltas
    fire-and-forget; the driver reads the aggregate after the job
    (approximate by a few in-flight batches)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.turns = 0
        self.computed = 0

    def add(self, turns: int, computed: int) -> None:
        self.turns += turns
        self.computed += computed

    def get(self) -> dict:
        return {"turns": self.turns, "computed": self.computed}


def start_memo_stats():
    """Driver-side: create (or fetch) the named counter actor. A stage
    built while it runs posts to it."""
    return (
        ray.remote(num_cpus=0)(_MemoStats)
        .options(name=_MEMO_STATS_ACTOR, get_if_exists=True)
        .remote()
    )


def _memo_stats_handle():
    """The counter actor, or None when Ray is not initialised or no driver
    started it."""
    if not ray.is_initialized():
        return None
    try:
        return ray.get_actor(_MEMO_STATS_ACTOR)
    except ValueError:
        return None


class KgStage:
    """transcript rows -> linked triple rows (the kernel: both DNNs, the
    entity dictionary and the kernel's caches, built once)."""

    def __init__(self, dict_ref: None = None, artifact_dir: str | None = None):
        """``dict_ref`` accepts only None: the kernel builds its own
        entity dictionary."""
        if dict_ref is not None:
            raise ValueError(
                f"KgStage: dict_ref {dict_ref!r} passes a shared entity dictionary, "
                "which is gone; the kernel builds its own, pass None")
        self.kernel = Kernel(artifact_dir)
        self._memo_stats = _memo_stats_handle()

    def __call__(self, batch: pa.Table) -> pa.Table:
        check_turn_keys(batch)
        conv = batch.column("conv_id").to_pylist()
        turn = batch.column("turn_idx").to_pylist()
        text = batch.column("text").to_pylist()
        links = self.kernel.link_texts(text)
        if self._memo_stats is not None:
            self._memo_stats.add.remote(sum(1 for x in text if x), self.kernel.missed_texts)
        return linked_table([(c, t, si) + row for c, t, sents in zip(conv, turn, links)
                             for si, rows in enumerate(sents) for row in rows])


_STAGES: dict[str | None, KgStage] = {}


def kg_stage_fn(batch: pa.Table, artifact_dir: str | None = None) -> pa.Table:
    """Stateless-task form of KgStage: this worker process's stage for
    ``artifact_dir``, built on first use. Ray reuses task workers across
    executions, so a warm cluster loads the models once per process, and
    the scheduler spreads tasks over every free CPU with no pool size.
    Keyed by ``artifact_dir``, so neither the models nor the kernel's
    caches are shared between weight sources.

    Once the stage is built, ``gc.freeze()`` moves every object the
    process holds (models, vocabularies, dictionary, imported modules)
    out of the collector's generations: they live as long as the process,
    and a full collection would otherwise walk them all again. Objects
    made later, memo entries included, stay collectable.

    Each batch runs with the cyclic collector paused (re-enabled in a
    ``finally``, so also when the kernel raises): the batch builds no
    reference cycles, so a pass inside it frees nothing, yet the young
    passes it triggered cost 0.11 s of the stage's CPU on ``kg_unique``
    and the full ones 0.015 s more (``scripts/kernel_split.py``).
    Reference counting still frees the batch's objects as they die."""
    stage = _STAGES.get(artifact_dir)
    if stage is None:
        stage = _STAGES[artifact_dir] = KgStage(artifact_dir=artifact_dir)
        gc.freeze()
    gc.disable()
    try:
        return stage(batch)
    finally:
        gc.enable()
