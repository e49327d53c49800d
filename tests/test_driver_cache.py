"""The driver's cached inputs (``__ray_entry__``): each is named by what
it holds, built once by ``_build_once`` and read by both the Ray side and
its oracle."""
from pathlib import Path

import pyarrow.parquet as pq

import __ray_entry__ as e
from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import (
    synth_transcripts_table,
    write_transcripts,
)


def test_transcripts_named_by_file_count(tmp_path, monkeypatch):
    """The same turns written as 4 and as 8 files are two entries."""
    monkeypatch.setattr(e, "_CACHE", tmp_path)
    four, eight = e._transcripts(300, n_files=4), e._transcripts(300, n_files=8)
    assert len(list(Path(four).glob("*.parquet"))) == 4
    assert len(list(Path(eight).glob("*.parquet"))) == 8
    assert pq.read_table(four).equals(pq.read_table(eight))


def test_synth_turns_reads_the_cached_files(tmp_path, monkeypatch):
    """The oracle's input is the cached entry that ``run_kg_job`` reads,
    whatever that entry holds: here a planted seed-7 table."""
    monkeypatch.setattr(e, "_CACHE", tmp_path)
    planted = synth_transcripts_table(600, seed=7)
    write_transcripts(planted, str(tmp_path / "transcripts_n600_s42_f8"), 8)
    assert e._synth_turns("sf0.001").equals(planted)


def test_artifacts_build_once_per_fingerprint(tmp_path, monkeypatch):
    """``_artifacts()`` saves the models once; other code gets its own
    entry, and building it evicts the old one."""
    from lingvo__postagger_ner_ru_dnn_ray.model.artifact import load_taggers

    monkeypatch.setattr(e, "_CACHE", tmp_path)
    first = e._artifacts()
    mtime = (Path(first) / "pos.npz").stat().st_mtime_ns
    assert e._artifacts() == first
    assert (Path(first) / "pos.npz").stat().st_mtime_ns == mtime
    load_taggers(first)

    monkeypatch.setattr(e, "_code_fingerprint", lambda: "0123abcd")
    second = e._artifacts()
    assert Path(second).name == "models_0123abcd"
    assert not Path(first).exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["models_0123abcd"]


def test_old_input_names_are_evicted(tmp_path, monkeypatch):
    """A transcript input under a name that ``_transcripts`` no longer
    writes goes at the next build, beside one under the current name,
    which stays."""
    monkeypatch.setattr(e, "_CACHE", tmp_path)
    for name in ("transcripts_n6000_s42", "transcripts_n300_s7", "transcripts_n6000_s42_f8"):
        (tmp_path / name).mkdir()
    e._transcripts(300, n_files=4)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "transcripts_n300_s42_f4", "transcripts_n6000_s42_f8"]
