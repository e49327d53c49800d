"""User-extension surface (SURVEY.md §2.11) — the formalized analogues of
the reference's plug-in interfaces:

  * ``InputTypeProcessor``  — ``IPosTaggerInputTypeProcessor``
    (PosTaggerInputTypeProcessor.cs:9-13), the pluggable graphemic
    classifier the tokenizer consults per token; wired through the
    ``TokenizerConfig.PosTaggerInputTypeProcessor`` slot
    (TokenizerConfig.cs:20, default ``_En`` at Tokenizer.cs:263).
  * ``Metric``              — ``IMetric`` (Metrics/IMetric.cs), pluggable
    evaluation metrics consumed by the validator (Validator.cs:79-97).

Both are name-keyed registries: names serialize cleanly into Ray task and
stage arguments (``KgStage(input_type_processor="my-proc")``, which
resolves the name and hands the processor to its per-turn kernel,
stages/kernel.py), the way the reference's JSON config names
processors/models rather than passing object graphs.
"""
from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import pandas as pd
import ray.data


@runtime_checkable
class InputTypeProcessor(Protocol):
    """Graphemic classifier: (utf-16 code-unit list, start, length) ->
    (PosTaggerInputType id, ExtraWordType flags)."""

    def __call__(self, u, start: int, length: int) -> tuple[int, int]: ...


@runtime_checkable
class Metric(Protocol):
    """Distributed evaluation metric over a Dataset (IMetric analogue):
    must be a partial+final aggregate (mergeable counters), never a
    driver-side pass."""

    def __call__(self, ds: ray.data.Dataset, **kwargs) -> pd.DataFrame: ...


_INPUT_TYPE_PROCESSORS: dict[str, InputTypeProcessor] = {}
_METRICS: dict[str, Metric] = {}


def register_input_type_processor(name: str, fn: InputTypeProcessor) -> None:
    _INPUT_TYPE_PROCESSORS[name] = fn


def input_type_processor(name: str | None) -> InputTypeProcessor | None:
    """Resolve by name; None / "en" -> None (the tokenizer's built-in
    default path, which keeps the shared token memo)."""
    if name is None or name == "en":
        return None
    try:
        return _INPUT_TYPE_PROCESSORS[name]
    except KeyError:
        raise KeyError(
            f"unknown input-type processor {name!r}; registered: "
            f"{sorted(_INPUT_TYPE_PROCESSORS)}"
        ) from None


def register_metric(name: str, fn: Metric) -> None:
    _METRICS[name] = fn


def metric(name: str) -> Metric:
    try:
        return _METRICS[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; registered: {sorted(_METRICS)}"
        ) from None


def _register_defaults() -> None:
    from .functions.metrics import length_histogram, seq_fscore
    from .textkit.features import get_input_type

    register_input_type_processor("en", get_input_type)
    register_metric("seq_fscore", seq_fscore)
    register_metric("length_histogram", length_histogram)


_register_defaults()
