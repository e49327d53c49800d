"""The job's one cross-batch cache: ``Kernel.link_texts`` memoizes each
sentence's link rows, keyed by its code units and URL spans. Called one
batch at a time on one reused kernel, so that the memo is warm, its rows
must equal ``Kernel.link`` over ``tag_texts``, which keeps no memo.

A sentence's URL span may start before the sentence: after "http…'/." the
sentence "ru/Иван Смирнов купил Газпром." holds the URL "/.ru/Иван", which
takes "Иван" out of the subject. The same code units alone form a sentence
with no URL, so a key without the spans returns the wrong subject."""
import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_lines import reference_lines

from lingvo__postagger_ner_ru_dnn_ray.model.lexicon import PERSONS
from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables
from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table
from lingvo__postagger_ner_ru_dnn_ray.stages import kernel as kernel_mod
from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage
from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import Kernel
from lingvo__postagger_ner_ru_dnn_ray.textkit import xlat
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_texts

_ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """perfbench/workloads.py, imported read-only."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  _ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _assert_memo_exact(k: Kernel, batches: list[list[str]]) -> None:
    for batch in batches:
        want = [[k.link(s) for s in ss] for ss in k.tag_texts(batch)]
        assert k.link_texts(batch) == want


def test_memo_equals_full_tagging_on_fixtures_and_workloads():
    """Every fixture line and 300 turns of each perfbench generator, in
    batches of 50 through one kernel; each input goes through twice, the
    second time at other batch boundaries, so that most sentences hit."""
    wl = _workloads()
    texts = (reference_lines()
             + wl.transcripts(300, 1).column("text").to_pylist()
             + wl.transcripts(300, 1, unique=True).column("text").to_pylist())
    k = Kernel()
    batches = [texts[a:a + 50] for a in range(0, len(texts), 50)]
    batches += [texts[a:a + 50] for a in range(25, len(texts), 50)]
    _assert_memo_exact(k, batches)
    assert k.missed_texts == 0  # the second pass came from the memo alone


_PIECES = [
    "Иван Смирнов купил Газпром.", "Сергей Козлов и Иван Смирнов в Москве.",
    "Смирнов купил Газпром!", "ru/Иван Смирнов купил Газпром.", "Да?", "ok",
    "www.example.ru", "http://example.com/path?q=1", "info@mail.ru", "info(at)mail.ru",
    "example.ru/x.", "http…'/.", "¤",
]
_SEPS = ["", " ", "\n", ". ", "! ", "\n\n"]
_text = st.lists(st.sampled_from(_PIECES) | st.sampled_from(_SEPS), max_size=8).map("".join)
_batches = st.lists(st.lists(_text | st.sampled_from(_PIECES), min_size=1, max_size=6),
                    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(_batches)
@example([["Иван Смирнов купил Газпром."], ["Да! Иван Смирнов купил Газпром."]])
@example([["ru/Иван Смирнов купил Газпром."], ["http…'/.ru/Иван Смирнов купил Газпром."]])
@example([["Иван Смирнов купил Газпром! ¤", "Иван Смирнов купил Газпром."]])
def test_memo_equals_full_tagging_on_repeats(batches):
    """Sentences, URLs and e-mails repeated at other offsets, within a
    batch and across batches; a "¤"-only sentence tokenizes to nothing."""
    _assert_memo_exact(Kernel(), batches)


def _entries(k: Kernel) -> int:
    return len(k._memo) + len(k._ids) + len(k._tokens) + len(k._surfaces)


def test_memo_clears_between_calls(monkeypatch):
    """A batch that finds the caches at their bound clears them before it
    reads any, so every one of its turns misses the memo (at the full memo
    some hit), and the two batches' rows equal the oracle's."""
    table = synth_transcripts_table(300, seed=7).select(["conv_id", "turn_idx", "text"])
    first, second = table.slice(0, 150), table.slice(150)
    stage = KgStage()
    out = [stage(first)]
    k = stage.kernel
    stored = set(k._memo)
    monkeypatch.setattr(kernel_mod, "_CACHE_ENTRIES", _entries(k))
    out.append(stage(second))
    assert k.missed_texts == sum(1 for x in second.column("text").to_pylist() if x)
    assert not stored <= k._memo.keys()
    key = lambda r: (r["conv_id"], r["turn_idx"], r["sent_idx"], r["triple_idx"])  # noqa: E731
    want = oracle_tables(table)["triples"].to_pylist()
    assert sorted(pa.concat_tables(out).to_pylist(), key=key) == sorted(want, key=key)


def test_entries_stay_within_the_bound_plus_one_call(monkeypatch, counting_caches):
    """After each call of a kernel, its four caches hold at most the bound
    plus the entries that call added, and they clear all together or not
    at all. ``link_texts``, ``tag_texts``, ``tag_sentences`` and ``link``
    over ``tag_texts`` take turns over the fixture table, 20 turns a call,
    with the bound at 200."""
    monkeypatch.setattr(kernel_mod, "_CACHE_ENTRIES", 200)
    texts = synth_transcripts_table(300, seed=7).column("text").to_pylist()
    k = Kernel()
    caches = counting_caches(k)
    calls = (k.link_texts, lambda b: list(k.tag_texts(b)),
             lambda b: k.tag_sentences([ws for ss in tokenize_texts(b) for ws in ss]),
             lambda b: [k.link(s) for ss in k.tag_texts(b) for s in ss])
    clears = 0
    for i, a in enumerate(range(0, len(texts), 20)):
        before = _entries(k)
        calls[i % len(calls)](texts[a:a + 20])
        assert len({c.clears for c in caches}) == 1, i  # all four or none
        cleared = caches[0].clears > clears
        clears = caches[0].clears
        added = _entries(k) - (0 if cleared else before)
        assert _entries(k) <= 200 + added, i
    assert clears >= 3


def test_sentence_after_newline_shares_its_key():
    """A sentence is keyed from its first word, so at a text's start and
    after a newline it is one memo key. ``tag_texts`` warms the token
    memo first, so ``link_texts`` stores both sentences."""
    k = Kernel()
    texts = ["Ущерб составил более 9,5 млн руб.", "Да.\nУщерб составил более 9,5 млн руб."]
    want = [[k.link(s) for s in ss] for ss in k.tag_texts(texts)]
    assert k.link_texts(texts) == want
    assert len(k._memo) == 2


def test_sentence_with_a_first_seen_token_is_stored_at_its_second_sighting():
    """A sentence whose tokenizing adds an entry to the token memo gets
    its rows but is not stored; at its next sighting every token of it is
    known, so it is stored, and the sighting after that hits. Each time its
    rows equal ``link`` over ``tag_texts`` of a fresh kernel."""
    k = Kernel()
    k.link_texts(["Иван Смирнов купил Газпром."])
    stored = set(k._memo)
    text = [f"Иван Смирнов купил Газпром в {_pseudo_word(7).capitalize()}."]
    fresh = Kernel()
    want = [[fresh.link(s) for s in ss] for ss in fresh.tag_texts(text)]
    assert want[0][0]  # the sentence links a triple
    assert k.link_texts(text) == want
    assert k._memo.keys() == stored and k.missed_texts == 1
    assert k.link_texts(text) == want
    assert len(k._memo) == len(stored) + 1 and k.missed_texts == 1
    assert k.link_texts(text) == want
    assert k.missed_texts == 0


_SYLLABLES = ["ба", "ве", "гу", "до", "жи", "зя", "ко", "лу",
              "ми", "но", "пы", "ре", "су", "ти", "фа", "хо"]


def _pseudo_word(i: int) -> str:
    """A word no lexicon holds, one per ``i`` < 16**4."""
    return "".join(_SYLLABLES[(i >> 4 * d) & 15] for d in range(4))


def test_caches_stay_bounded_on_a_unique_stream(monkeypatch):
    """20,000 sentences, each with its own pseudo-word (every eighth can
    form a triple), in batches of 512 through one kernel whose sentence
    memo, id map and token memo hold at most 3,072 entries together before
    a call clears them. The traced memory that the batches after the fifth
    leave allocated is bounded. Measured on this input, it read 0.18-0.56
    MB after each batch with that bound (at most 0.61 MB over 60,000 such
    sentences), and 8.2 MB at the end with the bound at its default; the
    bound of 2 MB sits between."""
    monkeypatch.setattr(kernel_mod, "_CACHE_ENTRIES", 3 * 1024)
    texts = [f"Смирнов купил {_pseudo_word(i)} в Москве." if i % 8 == 0
             else f"{_pseudo_word(i)} пишет." for i in range(20_000)]
    batches = [texts[a:a + 512] for a in range(0, len(texts), 512)]
    k = Kernel()
    for batch in batches[:5]:
        k.link_texts(batch)
    tracemalloc.start()
    try:
        for batch in batches[5:]:
            k.link_texts(batch)
        growth = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert growth < 2_000_000


def test_a_word_is_stored_at_its_second_sighting():
    """A word enters the token memo and the id map at its second
    sighting, not its first, through ``link_texts`` and ``tag_texts``
    alike; the rows and labels are those of a fresh kernel each time."""
    word = _pseudo_word(11).capitalize()
    text = [f"Иван Смирнов купил {word}."]
    key = word.encode(xlat._ENC)
    fresh = Kernel()
    want = [[fresh.link(s) for s in ss] for ss in fresh.tag_texts(text)]
    for call in (lambda k: k.link_texts(text),
                 lambda k: [[k.link(s) for s in ss] for ss in k.tag_texts(text)]):
        k = Kernel()
        assert call(k) == want
        assert key not in k._tokens and word not in k._ids
        assert call(k) == want
        assert key in k._tokens and word in k._ids


def test_a_unique_stream_keeps_its_caches_at_the_lexicon_scale():
    """perfbench's 5,000 ``kg_unique`` turns, whose sentences each carry a
    pseudo-word seen once, through one ``KgStage`` in batches of 512: the
    token memo and the id map hold the words that recur, about 230
    entries, where storing every word at its first sighting held about
    20,500."""
    table = _workloads().transcripts(5000, 1, unique=True).select(["conv_id", "turn_idx", "text"])
    stage = KgStage()
    for a in range(0, table.num_rows, 512):
        stage(table.slice(a, 512))
    k = stage.kernel
    assert len(k._tokens) + len(k._ids) < 1000
    assert k._door.inserts > 20_000  # each pseudo-word's two first sightings


def test_doorkeeper_insertions_count_toward_the_bound(monkeypatch, counting_caches):
    """200 sentences, each with a word seen once, leave the caches far
    below a bound of 300 entries but the doorkeeper with an insertion per
    first sighting (token memo and id map), and those count: the next
    call clears the four caches and the doorkeeper, so it meets the same
    words at their first sighting again and stores none of them."""
    monkeypatch.setattr(kernel_mod, "_CACHE_ENTRIES", 300)
    words = [_pseudo_word(i) for i in range(200)]
    texts = [f"{w} пишет." for w in words]
    k = Kernel()
    caches = counting_caches(k)
    k.link_texts(texts)
    assert _entries(k) < 300 <= _entries(k) + k._door.inserts
    assert [c.clears for c in caches] == [0] * 4
    k.link_texts(texts)
    assert [c.clears for c in caches] == [1] * 4
    assert not {w.encode(xlat._ENC) for w in words} & k._tokens.keys()
    assert not set(words) & k._ids.keys()


_SURNAMES = [last for _, forms in PERSONS for _, last in forms]


def test_surface_memo_stays_bounded_on_unique_surfaces(monkeypatch, counting_caches):
    """5,000 sentences, each with a subject surface of its own ("Сергей"
    and three surname forms, one PER span), in batches of 128 through one
    kernel whose four caches hold at most 512 entries together before a
    call clears them. Each call clears all four exactly when it finds them
    at the bound, and the traced memory that the batches after the fourth
    leave allocated stays under 1 MB: measured 0.10-0.27 MB, against 1.8 MB
    when a per-process memo outside the kernel's bound kept every surface."""
    monkeypatch.setattr(kernel_mod, "_CACHE_ENTRIES", 512)
    texts = [f"Сергей {' '.join(_SURNAMES[i // 21 ** d % 21] for d in range(3))} купил Газпром."
             for i in range(5_000)]
    batches = [texts[a:a + 128] for a in range(0, len(texts), 128)]
    k = Kernel()
    caches = counting_caches(k)
    for batch in batches[:4]:
        k.link_texts(batch)
    tracemalloc.start()
    try:
        for batch in batches[4:]:
            before, clears = _entries(k), caches[0].clears
            k.link_texts(batch)
            assert len({c.clears for c in caches}) == 1  # all four or none
            assert (caches[0].clears > clears) == (before >= 512)
            assert len(k._surfaces) > len(batch)  # one per sentence, and Газпром
            growth = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert growth < 1_000_000


_IMPORT_TRACE = """
import json, tracemalloc
import numpy, pyarrow, ray.data  # noqa: F401
tracemalloc.start()
from lingvo__postagger_ner_ru_dnn_ray.pipelines import kg  # noqa: F401
from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage
stage = KgStage()
print(json.dumps(tracemalloc.get_traced_memory()[0]))
"""


def test_package_import_and_stage_allocate_little():
    """What every process that runs the job holds for the package: in a
    process that has imported numpy, pyarrow and ``ray.data`` already,
    importing ``pipelines.kg`` and building ``KgStage()`` leaves under
    3.5 MB allocated by ``tracemalloc``. Measured 2.6 MB, against 6.2 MB
    when the three per-char tables were 64K-entry lists of ints."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_TRACE], cwd=_ROOT,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) < 3_500_000
