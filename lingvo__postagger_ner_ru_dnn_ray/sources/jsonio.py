"""Batch JSON boundary — the bulk analogue of the reference's web-service
request/response surface (PosTaggerController.cs:33-60 routes POST
``{text, modelType}`` through the shared predictor pool; Models/VM.cs:10-62
shapes the reply as ``{sents: [{tuples: [{word, label}, ...]}, ...]}``),
re-expressed Ray-Data-first: JSONL request records in, one tagged JSON
record per request out, with the tokenizing and tagging done by the same
per-turn kernel (stages/kernel.py) the rest of the engine uses.

Request  (one JSON object per line): ``{"text": "...", "id": "..."?}``
Response (one JSON object per line): ``{"id": ..., "sents": [...]}`` in the
VM shape above, sentences in document order, one tuple per token.

Design notes (scale):
- The whole request → response path is ONE ``map_batches`` of stateless
  tasks (models load once per worker process),
  so it needs no pool size and runs on any cluster, one CPU included: a
  request's text is a single input row, so every sentence it produces
  exists inside the same batch and assembly is batch-local — no
  groupby/shuffle anywhere, the pipeline streams.
- Requests are keyed by ``id`` when present, else by an md5 content
  fingerprint; duplicate keys inside a batch collapse to one response
  (idempotent, cache-like semantics — the natural contract for a batch
  boundary re-playing web traffic).
- ``model_type`` mirrors the request's ``modelType`` → ModelInfos routing
  (WebService Program.cs:36-74): ``"pos"`` labels tuples with the corrected
  PosTaggerOutputType names, ``"ner"`` with the BIO tags.
"""
from __future__ import annotations

import hashlib
import json

import pyarrow as pa
import ray.data

_MODEL_TYPES = ("pos", "ner")


def read_json_requests(path: str) -> ray.data.Dataset:
    """JSONL request records → transcript-shaped rows (conv_id, turn_idx,
    role, text) ready for the engine's tokenize/tag stages. ``id`` is
    optional; absent ids become md5(text) content fingerprints."""
    ds = ray.data.read_json(path)

    def stamp(batch: pa.Table) -> pa.Table:
        text = batch.column("text").to_pylist()
        if "id" in batch.column_names:
            raw = batch.column("id").to_pylist()
            ids = [
                str(r) if r is not None else _content_id(t)
                for r, t in zip(raw, text)
            ]
        else:
            ids = [_content_id(t) for t in text]
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.string()),
                pa.array([0] * len(ids), pa.int32()),
                pa.array(["user"] * len(ids), pa.string()),
                pa.array([t if t is not None else "" for t in text], pa.string()),
            ],
            names=["conv_id", "turn_idx", "role", "text"],
        )

    return ds.map_batches(stamp, batch_format="pyarrow")


def _content_id(text: str | None) -> str:
    return hashlib.md5((text or "").encode("utf-8")).hexdigest()


def webjson_batch(batch: pa.Table, model_type: str = "ner") -> pa.Table:
    """Request rows → one VM-shaped JSON record per request, through this
    process's kernel (models load once per worker process)."""
    from ..stages.kernel import kernel

    if model_type not in _MODEL_TYPES:
        raise ValueError(f"model_type must be one of {_MODEL_TYPES}")
    # batch-local request registry, first occurrence wins (duplicate keys
    # collapse — see module docstring)
    first: dict[str, str] = {}
    for cid, text in zip(batch.column("conv_id").to_pylist(),
                         batch.column("text").to_pylist()):
        first.setdefault(cid, text)
    tagged = kernel().tag_texts(list(first.values()))
    # one row per request, empty-text requests included with sents: []
    sents = [
        json.dumps([{"tuples": [{"word": w, "label": l}
                                for w, l in zip(s.values, getattr(s, model_type))]}
                    for s in ss], ensure_ascii=False)
        for ss in tagged
    ]
    return pa.Table.from_arrays(
        [pa.array(list(first), pa.string()), pa.array(sents, pa.string())],
        names=["id", "sents_json"],
    )


def tag_requests(requests: ray.data.Dataset, model_type: str = "ner") -> ray.data.Dataset:
    """Request rows → ``(id, sents_json)`` rows, as stateless tasks."""
    return requests.map_batches(webjson_batch, batch_format="pyarrow",
                                fn_kwargs={"model_type": model_type})


def run_webjson_job(in_path: str, out_dir: str, model_type: str = "ner") -> None:
    """End-to-end batch replay of the web surface: JSONL requests at
    ``in_path`` → tagged VM-shaped JSONL under ``out_dir`` (one
    ``{"id", "sents"}`` object per line; sents parsed back from the
    stage's JSON string so the on-disk record is the nested VM shape)."""
    tagged = tag_requests(read_json_requests(in_path), model_type=model_type)

    def to_record(batch: pa.Table):
        import pandas as pd

        return pd.DataFrame(
            {
                "id": batch.column("id").to_pylist(),
                "sents": [json.loads(s) for s in batch.column("sents_json").to_pylist()],
            }
        )

    # pandas-block JSON sink: object columns serialize as nested JSON, so
    # each output line is the exact VM record shape
    tagged.map_batches(to_record, batch_format="pyarrow").write_json(out_dir)
