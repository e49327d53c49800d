"""Model-artifact save/load: the production path for shipping trained
weights to inference actors.

Mirror of the reference's serialized-model round trip — SaveModelRoutine
writes the weights+vocab `.s2s` protobuf with a `.bak` backup
(Network/BaseSeq2SeqFramework.cs:172-203) and LoadModelRoutine reads it
once at predictor construction (BaseSeq2SeqFramework.cs:204-228,
Models/Model_4_ProtoBufSerializer.cs:1-57). Here the container has no
onnxruntime/protobuf-net, so the artifact is a `.npz` weight archive plus
a JSON manifest carrying a sha256 content hash (integrity check on load,
the analogue of protobuf-net's framing) and the hyperparameters
(Model.cs:12-60: HiddenDim/EncoderLayerDepth/MultiHeadNum + vocabs).

Actors receive a PATH and load once in ``__init__`` — the same
load-once-per-predictor contract as the reference's
WeakReference<Predictor> pool (ConcurrentFactory.cs:90-108).
"""
from __future__ import annotations

import hashlib
import json
import os
import uuid
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
    # unique temp name: concurrent writers (two actors racing on a shared
    # cache dir) must not clobber each other's in-flight file
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}")
    with open(tmp, "wb") as f:
        np.savez_compressed(
            f, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays
        )
    tmp.rename(path)
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = {
        "format": _FORMAT,
        "sha256": sha,
        "n_weight_tensors": len(arrays),
        "dim": model.dim,
        "n_layers": model.n_layers,
        "vocab_size": len(model.src_vocab),
        "n_labels": len(model.labels),
    }
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


def _model_code_fingerprint() -> str:
    """Hash of the source files that determine the default artifacts'
    contents — keys the /tmp cache so a code change invalidates it
    instead of silently reusing stale weights."""
    h = hashlib.sha256()
    here = Path(__file__).parent
    for name in sorted(p.name for p in here.glob("*.py")):
        h.update((here / name).read_bytes())
    return h.hexdigest()[:12]


def ensure_default_artifacts(base_dir: str | Path | None = None) -> str:
    """Build the two lexicon-constructed models once and persist them as
    artifacts under ``base_dir`` (default: a /tmp dir keyed by a hash of
    the model package source, so artifacts built by older code are never
    silently reused). Returns the directory holding pos.npz / ner.npz.

    This is the driver-side step a production deployment replaces with
    "copy the trained ONNX/npz from the model registry"; actors then load
    from the returned path in __init__."""
    from .lexicon import taggers

    base = (
        Path(base_dir)
        if base_dir
        else Path(f"/tmp/graft_models/default_{_model_code_fingerprint()}")
    )
    pos_p, ner_p = base / "pos.npz", base / "ner.npz"
    try:
        load_artifact(pos_p)
        load_artifact(ner_p)
        return str(base)
    except Exception:
        pass
    pos, ner = taggers()
    save_artifact(pos, pos_p)
    save_artifact(ner, ner_p)
    return str(base)


def load_taggers(artifact_dir: str | Path) -> tuple[SeqLabelModel, SeqLabelModel]:
    base = Path(artifact_dir)
    return load_artifact(base / "pos.npz"), load_artifact(base / "ner.npz")
