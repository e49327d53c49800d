"""Token↔id vocabulary with the reference's reserved ids.

Mirrors Models/Vocab.cs:14-57,154-194 and Corpus/BuildInTokens.cs:13-15:
ids 0=</s> (EOS/pad), 1=<s>, 2=<unk>; real entries start at 3, in the
order the items are given.
"""
from __future__ import annotations

from collections.abc import Iterable

EOS = "</s>"
BOS = "<s>"
UNK = "<unk>"
EOS_ID, BOS_ID, UNK_ID = 0, 1, 2

PREDEFINED = (EOS, BOS, UNK)


class Vocab:
    def __init__(self, items: Iterable[str]):
        self.word_to_index: dict[str, int] = {EOS: EOS_ID, BOS: BOS_ID, UNK: UNK_ID}
        for w in items:
            if w not in self.word_to_index:
                self.word_to_index[w] = len(self.word_to_index)
        self.index_to_word = {i: w for w, i in self.word_to_index.items()}

    def __len__(self) -> int:
        return len(self.word_to_index)

    def id(self, word: str) -> int:
        return self.word_to_index.get(word, UNK_ID)

    def ids(self, words: Iterable[str]) -> list[int]:
        g = self.word_to_index.get
        return [g(w, UNK_ID) for w in words]

    def word(self, idx: int) -> str:
        return self.index_to_word.get(idx, UNK)
