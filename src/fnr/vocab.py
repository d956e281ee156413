"""Token vocabulary with reserved ids and the shared tokenizer.

Reserved ids are fixed: PAD=0 (all-zero, never updated embedding), EOS=1
(sentence separator inside concatenated questions), UNK=2 (fallback for
unseen or below-cutoff tokens).  Tokens are lowercased (``normalize``);
the literal separator token "EOS" keeps its case so it can never collide
with an ordinary word "eos".
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Sequence

PAD_TOKEN = "<PAD>"
EOS_TOKEN = "EOS"
UNK_TOKEN = "<UNK>"
PAD_ID = 0
EOS_ID = 1
UNK_ID = 2
RESERVED = (PAD_TOKEN, EOS_TOKEN, UNK_TOKEN)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_SENT_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def normalize(token: str) -> str:
    """The vocabulary form of a token: lowercased, except the EOS separator."""
    return token if token == EOS_TOKEN else token.lower()


class Vocabulary:
    """Dense token -> id map with reserved PAD/EOS/UNK slots."""

    def __init__(self, tokens: Sequence[str]):
        """``tokens`` is the full id-ordered token list including the three
        reserved entries at positions 0..2; every other token must be in
        its ``normalize`` form, since ``lookup`` could never reach it
        otherwise."""
        if tuple(tokens[:3]) != RESERVED:
            raise ValueError(f"vocabulary must start with {RESERVED}")
        for tok in tokens[3:]:
            if normalize(tok) != tok:
                raise ValueError(f"token {tok!r} is not normalised; expected {normalize(tok)!r}")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {}
        for i, tok in enumerate(self.id_to_token):
            if tok in self.token_to_id:
                raise ValueError(f"duplicate token {tok!r} in vocabulary")
            self.token_to_id[tok] = i

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return normalize(token) in self.token_to_id

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(normalize(token), UNK_ID)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(normalize(t), UNK_ID) for t in tokens]


def build_vocab(corpus: Iterable[Sequence[str]], min_freq: int = 1) -> Vocabulary:
    """Deterministic vocabulary over a token-sequence corpus.

    Ids beyond the reserved three are assigned frequency-descending with
    lexicographic tie-breaking, so two corpora with the same token multiset
    produce the identical vocabulary.  Tokens below ``min_freq`` are left
    out and resolve to UNK.
    """
    raw: Counter[str] = Counter()
    saw_any = False
    for seq in corpus:
        saw_any = True
        raw.update(seq)
    if not saw_any:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    # Each raw spelling is folded once, not once per occurrence.
    counts: Counter[str] = Counter()
    for token, n in raw.items():
        counts[normalize(token)] += n
    del counts[EOS_TOKEN]
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    return Vocabulary(list(RESERVED) + kept)


def tokenize(text: str) -> list[list[str]]:
    """Split raw text into sentences of tokens.

    Whitespace/punctuation tokenization with sentence boundaries at
    terminal .!? runs; case is preserved for surface output and folded
    only at vocabulary lookup.
    """
    sentences = []
    for chunk in _SENT_SPLIT_RE.split(text.strip()):
        toks = _TOKEN_RE.findall(chunk)
        if toks:
            sentences.append(toks)
    return sentences


def join_sentences(sentences: Sequence[Sequence[str]]) -> list[str]:
    """Concatenate sentences into one token sequence with EOS separators."""
    out: list[str] = []
    for i, sent in enumerate(sentences):
        if i > 0:
            out.append(EOS_TOKEN)
        out.extend(sent)
    return out
