"""Fused per-turn stage: tokenize → tag → extract triples → link, in ONE
actor-pool ``map_batches``.

The modular stages (stages/tokenize|tag|triples|linking) are composable
and individually testable, but chaining them as separate operators splits
the cluster between an actor pool and task pools — whichever side is
under-provisioned becomes the bottleneck — and pays an Arrow↔Python
round-trip at every stage boundary (tokenize builds list columns that tag
immediately to_pylist()s, tag appends label columns that triples
to_pylist()s again). Since every step after the read is a pure per-turn
function, the fused stage runs the whole chain over PYTHON structures and
builds ONE Arrow table at the end.

Equivalence with the modular chain is asserted in
tests/test_pipeline_ray.py::test_fused_equals_modular (both paths must
equal the single-process oracle) and
tests/test_pipeline_ray.py::test_deep_fused_equals_modular_chain.
"""
from __future__ import annotations

import os

import pyarrow as pa

from .linking import NIL, LinkerStage, normalize_surface
from .tag import TaggerStage, _correct_pos, _model_token_cached
from .tokenize import tokenize_batch
from .triples import TRIPLE_SCHEMA, extract_sentence_triples
from ..textkit.tokenizer import tokenize_text

_OUT_NAMES = list(TRIPLE_SCHEMA.names) + [
    "subj_id", "subj_canon", "obj_id", "obj_canon"
]
_OUT_SCHEMA = pa.schema(
    list(TRIPLE_SCHEMA)
    + [pa.field(n, pa.string()) for n in ("subj_id", "subj_canon", "obj_id", "obj_canon")]
)

_MEMO_STATS_ACTOR = "graft_kg_memo_stats"


class _MemoStats:
    """Cluster-wide memo-hit counters (opt-in, GRAFT_KG_MEMO_STATS=1): the
    fused stage's turn-memo hit rate is the documented scaling-efficiency
    ceiling (8 workers see hotter caches than 32), so the bench surfaces
    MEASURED unique-compute fractions per run instead of a modeled one.
    Workers post per-batch deltas fire-and-forget; the driver reads the
    aggregate after the job (approximate by a few in-flight batches)."""

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
    import ray

    return (
        ray.remote(num_cpus=0)(_MemoStats)
        .options(name=_MEMO_STATS_ACTOR, get_if_exists=True)
        .remote()
    )


def _memo_stats_handle():
    if os.environ.get("GRAFT_KG_MEMO_STATS") != "1":
        return None
    try:
        import ray

        return ray.get_actor(_MEMO_STATS_ACTOR)
    except Exception:
        return None  # flag set but no driver-side actor: counters off


class KgStage:
    """transcript rows -> linked triple rows (one actor = both DNNs + the
    broadcast entity dictionary, loaded once)."""

    def __init__(self, dict_ref=None, artifact_dir: str | None = None,
                 input_type_processor: str | None = None):
        """``input_type_processor``: NAME of a registered plug-in
        (plugins.input_type_processor) — the TokenizerConfig
        PosTaggerInputTypeProcessor slot; names (not callables) so the
        kwarg serializes cleanly into actor constructors."""
        from ..plugins import input_type_processor as _resolve

        self.tagger = TaggerStage(artifact_dir=artifact_dir)
        self.linker = LinkerStage(dict_ref=dict_ref, columns=("subj", "obj"))
        self.itp = _resolve(input_type_processor)
        # per-worker turn memo: the whole chain is a pure function of the
        # turn TEXT (conv/turn are only output keys), and real transcript
        # streams are duplicate-heavy ("ok", "thanks" — the bench fixture
        # alone repeats 29% of turns), so identical turns replay cached
        # rows instead of re-running tokenizer FSM + two DNNs. Bounded +
        # self-clearing like the dataops hash memos; deterministic, so
        # resume/retry replay is unaffected.
        self._turn_memo: dict[str, list[tuple]] = {}
        self._memo_stats = _memo_stats_handle()

    def call_modular(self, batch: pa.Table) -> pa.Table:
        """The stage-by-stage composition — the reference implementation
        the deep-fused path is tested against."""
        from .triples import triples_batch

        sents = tokenize_batch(batch)
        tagged = self.tagger(sents)
        triples = triples_batch(tagged)
        return self.linker(triples)

    def _compute_rows(self, todo: list[str]) -> list[list[tuple]]:
        """Run the full chain for each unique text; returns per-text rows
        (sent_idx, triple_idx, *triple_fields, subj_id, subj_canon,
        obj_id, obj_canon). Sentences of ALL texts still tag in one
        predict_batch call (batched inference is preserved)."""
        sent_meta: list[tuple] = []
        sent_words: list[list] = []
        for xi, x in enumerate(todo):
            for si, words in enumerate(tokenize_text(x, input_type_processor=self.itp)):
                sent_meta.append((xi, si))
                sent_words.append(words)

        mt = _model_token_cached
        pos_in = [[mt(w.value, w.input_type, 4) for w in ws] for ws in sent_words]
        ner_in = [[mt(w.value, w.input_type, 10000) for w in ws] for ws in sent_words]
        pos_raw = self.tagger.pos_model.predict_batch(pos_in)
        ner_raw = self.tagger.ner_model.predict_batch(ner_in)

        lookup = self.linker.lookup
        rows: list[list[tuple]] = [[] for _ in todo]
        for (xi, si), words, praw, nraw in zip(sent_meta, sent_words, pos_raw, ner_raw):
            input_types = [w.input_type for w in words]
            extras = [w.extra for w in words]
            pos = _correct_pos(input_types, extras, praw)
            ner = nraw + ["O"] * (len(words) - len(nraw)) if len(nraw) < len(words) else nraw
            vals = [w.value for w in words]
            starts = [w.start for w in words]
            lens = [w.length for w in words]
            for ti, tup in enumerate(
                extract_sentence_triples(vals, starts, lens, pos, ner)
            ):
                link: list[str] = []
                for side_surface in (tup[0], tup[3]):
                    hit = lookup.get(normalize_surface(side_surface))
                    if hit is None:
                        link += [NIL, normalize_surface(side_surface)]
                    else:
                        link += [hit[0], hit[1]]
                rows[xi].append((si, ti) + tuple(tup) + tuple(link))
        return rows

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
            for x, rows in zip(todo, self._compute_rows(todo)):
                memo[x] = rows
        if self._memo_stats is not None:
            uniq = len({x for x in text if x})
            self._memo_stats.add.remote(
                sum(1 for x in text if x), uniq, len(todo)
            )

        payload_names = list(TRIPLE_SCHEMA.names[4:]) + [
            "subj_id", "subj_canon", "obj_id", "obj_canon"
        ]
        cols: dict[str, list] = {n: [] for n in _OUT_NAMES}
        for c, t, x in zip(conv, turn, text):
            if not x:
                continue
            for row in memo[x]:
                cols["conv_id"].append(c)
                cols["turn_idx"].append(t)
                cols["sent_idx"].append(row[0])
                cols["triple_idx"].append(row[1])
                for name, v in zip(payload_names, row[2:]):
                    cols[name].append(v)
        return pa.Table.from_arrays(
            [pa.array(cols[f.name], f.type) for f in _OUT_SCHEMA], schema=_OUT_SCHEMA
        )


_FUSED_SINGLETON: KgStage | None = None


def kg_stage_fn(batch: pa.Table) -> pa.Table:
    """Stateless-TASK variant of KgStage: state lives in a module-level
    singleton built once per WORKER PROCESS (Ray task workers are reused
    across executions, so a warm cluster pays zero per-execution actor
    startup, and the scheduler spreads tasks over every free CPU with no
    pool-size tuning). Valid here because the models + dictionary are
    deterministic module-level constructibles; a model shipped as a large
    external artifact would use the KgStage actor + ray.put broadcast
    instead."""
    global _FUSED_SINGLETON
    if _FUSED_SINGLETON is None:
        _FUSED_SINGLETON = KgStage(dict_ref=None)
    return _FUSED_SINGLETON(batch)
