"""Model-artifact save/load: the production path for shipping trained
weights to inference tasks. This module only writes and reads artifacts;
it builds no cache.

Mirror of the reference's serialized-model round trip — SaveModelRoutine
writes the weights+vocab `.s2s` protobuf with a `.bak` backup
(Network/BaseSeq2SeqFramework.cs:172-203) and LoadModelRoutine reads it
once at predictor construction (BaseSeq2SeqFramework.cs:204-228,
Models/Model_4_ProtoBufSerializer.cs:1-57). Here the container has no
onnxruntime/protobuf-net, so the artifact is a `.npz` archive of the
weights and, in its ``meta`` entry, the hyperparameters (Model.cs:12-60:
HiddenDim/EncoderLayerDepth/MultiHeadNum + vocabs), plus a JSON sidecar
holding what a load checks: the format and a sha256 content hash (the
analogue of protobuf-net's framing).

Tasks receive a PATH, and each worker process loads it once (the
kernel's ``__init__``) — the same load-once-per-predictor contract as the
reference's WeakReference<Predictor> pool (ConcurrentFactory.cs:90-108).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .tagger import SeqLabelModel
from .vocab import PREDEFINED, Vocab

_FORMAT = "npz-v1"


def save_artifact(model: SeqLabelModel, path: str | Path) -> dict:
    """Write ``model`` to ``path`` (.npz) + ``path``.manifest.json.
    Returns the manifest. Atomic-ish: writes to a temp name then renames
    (the reference's `.bak`-then-swap, BaseSeq2SeqFramework.cs:176-182)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": _FORMAT,
        "dim": model.dim,
        "n_layers": model.n_layers,
        "n_heads": model.n_heads,
        "max_ending_length": model.max_ending_length,
        "labels": list(model.labels),
        # ids 0..2 are the predefined tokens; real entries follow in id order
        "vocab": [model.src_vocab.word(i) for i in range(len(PREDEFINED), len(model.src_vocab))],
    }
    arrays = {f"w__{k}": v for k, v in model.w.items()}
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        np.savez_compressed(
            f, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays
        )
    tmp.rename(path)
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = {"format": _FORMAT, "sha256": sha}
    mpath = Path(str(path) + ".manifest.json")
    mpath.write_text(json.dumps(manifest, indent=1))
    return manifest


def load_artifact(path: str | Path) -> SeqLabelModel:
    """Load a model artifact; its manifest's format is checked and its
    sha256 recomputed, and a mismatch raises (corrupt/partial artifact)."""
    path = Path(path)
    manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
    if manifest.get("format") != _FORMAT:
        raise ValueError(f"unknown artifact format: {manifest.get('format')}")
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    if sha != manifest["sha256"]:
        raise ValueError(f"artifact hash mismatch for {path}: {sha} != {manifest['sha256']}")
    npz = np.load(path)
    meta = json.loads(bytes(npz["meta"]))
    weights = {k[len("w__"):]: npz[k] for k in npz.files if k.startswith("w__")}
    vocab = Vocab(meta["vocab"])
    return SeqLabelModel(
        vocab,
        tuple(meta["labels"]),
        weights,
        dim=meta["dim"],
        n_layers=meta["n_layers"],
        n_heads=meta["n_heads"],
        max_ending_length=meta["max_ending_length"],
    )


def load_taggers(artifact_dir: str | Path) -> tuple[SeqLabelModel, SeqLabelModel]:
    base = Path(artifact_dir)
    return load_artifact(base / "pos.npz"), load_artifact(base / "ner.npz")


def save_taggers(artifact_dir: str | Path) -> None:
    """Write the two lexicon-built models to ``artifact_dir`` as the
    pos.npz / ner.npz pair that ``load_taggers`` reads."""
    from .lexicon import taggers

    for name, model in zip(("pos", "ner"), taggers()):
        save_artifact(model, Path(artifact_dir) / f"{name}.npz")
