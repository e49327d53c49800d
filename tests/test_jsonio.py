"""Batch JSON boundary (sources/jsonio.py): the bulk replay of the
reference's web request/response surface (``read_json_requests`` →
``tag_requests``) must produce, for the bundled reference input lines
(``reference_lines()``), exactly the sentence/token/label structure pinned
in fixtures/reference_input_labels.json (the "simple" sentence-split path
— the shape the web UI renders, VM.cs:10-62)."""
import json
from pathlib import Path

import pytest
from reference_lines import reference_lines

FIXTURE = json.load(
    (Path(__file__).resolve().parents[1] / "fixtures" / "reference_input_labels.json")
    .open(encoding="utf-8")
)


def _write_requests(tmp_path, lines):
    p = tmp_path / "reqs.jsonl"
    with p.open("w", encoding="utf-8") as f:
        for i, text in enumerate(lines):
            f.write(json.dumps({"id": f"line-{i}", "text": text}, ensure_ascii=False) + "\n")
    return str(p)


def _tag_file(in_path, **kwargs):
    """The ``(id, sents_json)`` rows of the requests at ``in_path``, as
    ``{id: sents}`` with each ``sents_json`` parsed."""
    from lingvo__postagger_ner_ru_dnn_ray.sources.jsonio import read_json_requests, tag_requests

    rows = tag_requests(read_json_requests(in_path), **kwargs).take_all()
    return {r["id"]: json.loads(r["sents_json"]) for r in rows}


@pytest.mark.parametrize("model_type", ["pos", "ner"])
def test_webjson_matches_pinned_labels(ray_session, tmp_path, model_type):
    lines = reference_lines()
    recs = _tag_file(_write_requests(tmp_path, lines), model_type=model_type)
    assert len(recs) == len(lines)
    for entry in FIXTURE:
        got = recs[f"line-{entry['line_idx']}"]
        want = entry["simple"]
        assert len(got) == len(want), f"line {entry['line_idx']}: sentence count"
        for gs, ws in zip(got, want):
            assert [t["word"] for t in gs["tuples"]] == ws["tokens"]
            assert [t["label"] for t in gs["tuples"]] == ws[model_type]


def test_webjson_empty_text_and_content_ids(ray_session, tmp_path):
    import ray.data

    from lingvo__postagger_ner_ru_dnn_ray.sources.jsonio import (
        read_json_requests,
        tag_requests,
    )

    p = tmp_path / "reqs.jsonl"
    with p.open("w", encoding="utf-8") as f:
        f.write(json.dumps({"text": ""}) + "\n")
        f.write(json.dumps({"text": "Он приехал в Петербурге."}, ensure_ascii=False) + "\n")
        # duplicate content, no id -> the same content id, its own response
        f.write(json.dumps({"text": "Он приехал в Петербурге."}, ensure_ascii=False) + "\n")

    reqs = read_json_requests(str(p)).repartition(1)
    out = tag_requests(reqs, model_type="ner").to_pandas()
    # one record per request; the two with one content share id and reply
    assert len(out) == 3
    empties = [r for _, r in out.iterrows() if json.loads(r["sents_json"]) == []]
    assert len(empties) == 1  # empty text -> sents: []
    tagged = out[out["id"] != empties[0]["id"]]
    assert len(tagged) == 2
    assert tagged["id"].nunique() == 1 and tagged["sents_json"].nunique() == 1
    words = [t["word"] for t in json.loads(tagged["sents_json"].iloc[0])[0]["tuples"]]
    assert words[0] == "Он" and words[-1] == "."
    labels = [t["label"] for t in json.loads(tagged["sents_json"].iloc[0])[0]["tuples"]]
    assert labels[words.index("Петербурге")] == "B-LOC"


def test_webjson_answers_each_request_in_any_batch(ray_session, tmp_path):
    """Two requests with one id in two blocks get two responses from the
    tasks, as from one single-process ``webjson_batch`` over the file."""
    import pyarrow.json as pj

    from lingvo__postagger_ner_ru_dnn_ray.sources.jsonio import (
        read_json_requests,
        requests_table,
        tag_requests,
        webjson_batch,
    )

    p = tmp_path / "reqs.jsonl"
    with p.open("w", encoding="utf-8") as f:
        for text in ("Он приехал в Петербурге.", "Козлов работает в Москве."):
            f.write(json.dumps({"id": "x", "text": text}, ensure_ascii=False) + "\n")

    reqs = read_json_requests(str(p)).repartition(2).materialize()
    assert reqs.num_blocks() == 2
    ray_df = tag_requests(reqs).to_pandas().sort_values("sents_json")
    orc_df = webjson_batch(requests_table(pj.read_json(p))).to_pandas().sort_values("sents_json")
    assert len(ray_df) == 2
    assert ray_df.reset_index(drop=True).equals(orc_df.reset_index(drop=True))


def test_webjson_driver_query_matches_single_process_oracle(ray_session, monkeypatch):
    """The web_json_tagged driver query (JSONL ingest -> web-JSON tasks,
    materialized) must equal ONE single-process webjson_batch call over
    the same request table — the F5 invariant extended to the JSON boundary."""
    import shutil

    import pyarrow.parquet as pq
    import ray.data

    import __ray_entry__ as e

    sf_dir = "/root/testdata/sf0.001"  # 600 requests
    # isolated cache dirs so the test never reuses / pollutes the gate's
    for p in e._webjson_paths(sf_dir):
        shutil.rmtree(p, ignore_errors=True)
        Path(p).unlink(missing_ok=True)
    try:
        ray_df = (
            ray.data.read_parquet(e._ensure_webjson_ray(sf_dir))
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        orc_df = (
            pq.read_table(e._ensure_webjson_oracle(sf_dir))
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        assert len(ray_df) == 600
        assert list(ray_df.columns) == list(orc_df.columns) == ["id", "sents_json"]
        assert ray_df.equals(orc_df)
    finally:
        for p in e._webjson_paths(sf_dir):
            shutil.rmtree(p, ignore_errors=True)
            Path(p).unlink(missing_ok=True)


def test_driver_cache_evicts_other_fingerprints(tmp_path, monkeypatch):
    """Writing a driver cache entry deletes every entry that other code
    wrote (its `_artifact` twin and its saved models too), and keeps the
    current code's entries at other scales and the transcript inputs,
    whose names carry no fingerprint."""
    import __ray_entry__ as e

    monkeypatch.setattr(e, "_CACHE", tmp_path)
    fp = e._code_fingerprint()
    stale = f"{int(fp, 16) ^ 1:08x}"
    for name in (f"kg_ray_n6000_{stale}", f"kg_ray_n6000_{stale}_artifact",
                 f"models_{stale}", f"kg_oracle_n6000_{fp}", "transcripts_n6000_s42_f8"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "_SUCCESS").touch()

    e._ensure_webjson_requests("sf0.001")  # 600 requests

    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"kg_oracle_n6000_{fp}",
        "transcripts_n6000_s42_f8",
        "transcripts_n600_s42_f8",
        f"webjson_reqs_n600_{fp}.jsonl",
    ]


def _two_requests(tmp_path):
    return _write_requests(tmp_path, ["Он приехал в Петербурге.", ""])


def _check_two_records(recs):
    assert set(recs) == {"line-0", "line-1"}
    assert recs["line-1"] == []
    labels = {t["word"]: t["label"] for t in recs["line-0"][0]["tuples"]}
    assert labels["Петербурге"] == "B-LOC"


def test_webjson_default_arguments(ray_session, tmp_path):
    """``tag_requests(requests)`` with every default: no pool size to
    choose, NER labels."""
    _check_two_records(_tag_file(_two_requests(tmp_path)))


_ONE_CPU_SESSION = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from lingvo__postagger_ner_ru_dnn_ray.sources.jsonio import read_json_requests, tag_requests
rows = tag_requests(read_json_requests(sys.argv[1])).take_all()
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump({r["id"]: json.loads(r["sents_json"]) for r in rows}, f)
ray.shutdown()
"""


def test_webjson_finishes_on_one_cpu(tmp_path):
    """Reading and tagging requests on a 1-CPU cluster finishes (its own
    Ray session, in a subprocess) instead of waiting forever for a CPU."""
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out.json"
    subprocess.run([sys.executable, "-c", _ONE_CPU_SESSION, _two_requests(tmp_path), str(out)],
                   cwd=root, check=True, timeout=120)
    _check_two_records(json.loads(out.read_text(encoding="utf-8")))
