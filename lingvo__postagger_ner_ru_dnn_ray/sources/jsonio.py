"""Batch JSON boundary — the bulk analogue of the reference's web-service
request/response surface (PosTaggerController.cs:33-60 routes POST
``{text, modelType}`` through the shared predictor pool; Models/VM.cs:10-62
shapes the reply as ``{sents: [{tuples: [{word, label}, ...]}, ...]}``),
re-expressed Ray-Data-first: JSONL request records in, one tagged row
per request out, with the tokenizing and tagging done by the same
per-turn kernel (stages/kernel.py) the rest of the engine uses.

Request  (one JSON object per line): ``{"text": "...", "id": "..."?}``
Response (one row per request): ``(id, sents_json)``, the VM ``sents`` list
above as JSON, sentences in document order, one tuple per token.

Design notes (scale):
- The whole request → response path is ONE ``map_batches`` of stateless
  tasks (models load once per worker process),
  so it needs no pool size and runs on any cluster, one CPU included: a
  request's text is a single input row, so every sentence it produces
  exists inside the same batch and assembly is batch-local — no
  groupby/shuffle anywhere, the pipeline streams.
- Every request gets exactly one response, whatever batch it lands in.
  Its ``id`` is the request's own, else an md5 fingerprint of its text;
  two requests with one id both get a response.
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


def requests_table(records: pa.Table) -> pa.Table:
    """JSON request records → ``(id, text)`` rows. ``id`` is optional: an
    absent one becomes the md5 of the text; a missing text becomes ""."""
    text = [t if t is not None else "" for t in records.column("text").to_pylist()]
    raw = (records.column("id").to_pylist() if "id" in records.column_names
           else [None] * len(text))
    ids = [str(r) if r is not None else hashlib.md5(t.encode("utf-8")).hexdigest()
           for r, t in zip(raw, text)]
    return pa.table({"id": pa.array(ids, pa.string()), "text": pa.array(text, pa.string())})


def read_json_requests(path: str) -> ray.data.Dataset:
    """The JSONL request records at ``path`` as ``(id, text)`` rows."""
    return ray.data.read_json(path).map_batches(requests_table, batch_format="pyarrow")


def webjson_batch(batch: pa.Table, model_type: str = "ner") -> pa.Table:
    """``(id, text)`` request rows → one VM-shaped JSON record per row,
    through this process's kernel (models load once per worker process)."""
    from ..stages.kernel import kernel

    if model_type not in _MODEL_TYPES:
        raise ValueError(f"model_type must be one of {_MODEL_TYPES}")
    tagged = kernel().tag_texts(batch.column("text").to_pylist())
    # empty-text requests get sents: []
    sents = [
        json.dumps([{"tuples": [{"word": w, "label": l}
                                for w, l in zip(s.values, getattr(s, model_type))]}
                    for s in ss], ensure_ascii=False)
        for ss in tagged
    ]
    return pa.table({"id": batch.column("id"), "sents_json": pa.array(sents, pa.string())})


def tag_requests(requests: ray.data.Dataset, model_type: str = "ner") -> ray.data.Dataset:
    """Request rows → ``(id, sents_json)`` rows, as stateless tasks."""
    return requests.map_batches(webjson_batch, batch_format="pyarrow",
                                fn_kwargs={"model_type": model_type})
