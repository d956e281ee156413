"""The full tagger: embedding -> BLSTM -> bank attention -> BLSTM ->
projection -> per-token softmax, with the two ablation wirings.

Variants:
  san           full model with bank attention and the second BLSTM
  sblstm        supervised stacked BLSTM; the bank branch is absent, so
                outputs are exactly independent of bank contents
  san-noblstm2  bank attention but no second BLSTM; the projection reads
                the concatenated representation directly

Loss and decoding exclude PAD positions, and bank attention runs only at
valid question positions (``batch.mask``): padded positions get an exactly
zero side vector, as the BLSTMs give them zero outputs.  Under a tape a
training step records 10 nodes for ``san`` with dropout: two embedding
lookups (the bank's on its (B, U, T) ids), one ``blstm_forward`` per BLSTM
(dropout included), ``transform_bank`` (valid bank words only), one
``bank_attend_batch``, the projection, one ``softmax`` and one
``batch_loss`` node.  Checkpoints are a versioned JSON container with
base64 little-endian float64 tensors; round trips are bit-exact.

Bank memo: in eval (no tape active) the same pool questions recur in bank
after bank, so each ``SanParams`` keeps a ``BankMemo`` of transformed bank
words, tanh(W_k h + b_k) at a bank question's valid positions, keyed on
its valid token-id prefix (its length is part of the key, so a literal
``<PAD>`` token never looks like padding).  A tape-free forward encodes
only the rows the memo lacks.  Before each one the memo compares exact
copies of everything its entries depend on (the embedding rows they read,
the bank BLSTM, ``w_k``, ``b_k``, the default dtype) with the live values
and drops every entry on any difference, so in-place edits cost a
recompute, never a stale answer.  An entry takes len * A * 8 bytes at
float64 and lives as long as the weights do.  A forward under a tape never
reads or fills the memo.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import threading
from dataclasses import dataclass

import numpy as np

from .attention import (AttentionParams, AttentionTrace, bank_attend_batch,
                        init_attention, transform_bank)
from .autodiff import (NonFiniteError, Tensor, _tape, astensor, default_dtype,
                       gather_rows, linear, softmax)
from .data import Batch, LABELS, F_INDEX, O_INDEX
from .embeddings import EmbeddingMatrix
from .lstm import BlstmParams, blstm_forward, glorot, init_blstm
from .optim import ParamGroup
from .vocab import EOS_TOKEN, Vocabulary

VARIANTS = ("san", "sblstm", "san-noblstm2")

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint container is malformed or incompatible."""


# The JSON value types a config field of each annotation accepts; a bool
# is never a number.  Checkpoint configs and CLI run configs share it.
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "str | None": (str, type(None))}


def json_type_ok(kind: str, value) -> bool:
    return isinstance(value, _JSON_TYPES[kind]) and (kind == "bool" or not isinstance(value, bool))


@dataclass
class SanConfig:
    """Model hyperparameters.  max_len=40 and bank_size=5 are the run
    defaults; labels are fixed to the two-symbol F/O set."""
    embedding_dim: int = 100
    hidden_size: int = 100
    attention_dim: int = 100
    max_len: int = 40
    bank_size: int = 5
    dropout: float = 0.2
    variant: str = "san"
    share_bank_encoder: bool = False
    seed: int = 13
    labels: tuple[str, ...] = LABELS

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if len(self.labels) != 2:
            raise ValueError("label set must have exactly two symbols")
        for name in ("embedding_dim", "hidden_size", "attention_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.bank_size < 0:
            raise ValueError("bank_size must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def has_bank(self) -> bool:
        return self.variant in ("san", "san-noblstm2")

    @property
    def has_layer2(self) -> bool:
        return self.variant in ("san", "sblstm")

    @property
    def encoder_width(self) -> int:
        return 2 * self.hidden_size

    @property
    def augmented_width(self) -> int:
        if self.has_bank:
            return self.encoder_width + self.attention_dim
        return self.encoder_width

    @property
    def projection_width(self) -> int:
        return self.encoder_width if self.has_layer2 else self.augmented_width

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "SanConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)


class BankMemo:
    """Transformed words of each distinct bank question, for tape-free
    forwards; see the module docstring.

    ``encoded`` counts rows run through the bank encoder and ``served``
    rows answered by an existing entry, over the memo's lifetime; every
    non-empty bank row of a memoised forward adds one to either.
    """

    def __init__(self):
        self.encoded = 0
        self.served = 0
        self._lock = threading.Lock()
        self._words: dict[bytes, np.ndarray] = {}
        self._dtype: np.dtype | None = None
        self._tensors: list[np.ndarray] = []   # copies of _sources(params)
        self._ids = np.zeros(0, dtype=np.int64)  # embedding rows the entries read
        self._rows = np.zeros((0, 0))            # copies of embedding[_ids]

    @staticmethod
    def _sources(params: "SanParams") -> list[Tensor]:
        """The tensors bank words depend on, besides the embedding."""
        lstm = [getattr(d, f.name) for d in (params.bank_blstm.fwd, params.bank_blstm.bwd)
                for f in dataclasses.fields(d)]
        return lstm + [params.attention.w_k, params.attention.b_k]

    def _matches(self, params: "SanParams") -> bool:
        return (self._dtype == default_dtype()
                and all(np.array_equal(t.data, c)
                        for t, c in zip(self._sources(params), self._tensors))
                and np.array_equal(params.embedding.data[self._ids], self._rows))

    def _reset(self, params: "SanParams") -> None:
        self._words = {}
        self._dtype = default_dtype()
        self._tensors = [t.data.copy() for t in self._sources(params)]
        self._ids = np.zeros(0, dtype=np.int64)
        self._rows = params.embedding.data[self._ids]

    def bank_words(self, bank_ids: np.ndarray, bank_mask: np.ndarray,
                   params: "SanParams") -> np.ndarray:
        """(B, U, T_u, A) transformed words, zero at padded positions."""
        b_sz, n_banks, t_len = bank_ids.shape
        attn_dim = params.attention.dim
        ids = np.asarray(bank_ids, dtype=np.int64).reshape(-1, t_len)
        mask = np.asarray(bank_mask).reshape(-1, t_len)
        lengths = mask.sum(axis=1).astype(np.intp)
        keys = [ids[r, :n].tobytes() if n else None for r, n in enumerate(lengths)]
        out = np.zeros((len(ids), t_len, attn_dim), dtype=default_dtype())
        with self._lock:
            if not self._matches(params):
                self._reset(params)
            fresh: dict[bytes, int] = {}   # key -> first row holding it
            for r, key in enumerate(keys):
                if key is not None and key not in self._words:
                    fresh.setdefault(key, r)
            if fresh:
                rows = list(fresh.values())
                self._encode(ids[rows], mask[rows], list(fresh), params)
            for r, key in enumerate(keys):
                if key is not None:
                    out[r, :lengths[r]] = self._words[key]
            self.encoded += len(fresh)
            self.served += sum(k is not None for k in keys) - len(fresh)
        return out.reshape(b_sz, n_banks, t_len, attn_dim)

    def _encode(self, ids: np.ndarray, mask: np.ndarray, keys: list[bytes],
                params: "SanParams") -> None:
        enc = blstm_forward(gather_rows(params.embedding, ids), mask, params.bank_blstm)
        valid = mask > 0
        words = transform_bank(enc, mask, params.attention).data[valid]
        lengths = valid.sum(axis=1)
        self._words.update(zip(keys, np.split(words, np.cumsum(lengths)[:-1])))
        self._ids = np.union1d(self._ids, ids[valid])
        self._rows = params.embedding.data[self._ids]


class SanParams:
    """All trainable tensors, registered by name in one ParamGroup, plus
    the eval-time ``BankMemo`` of the bank encoder's outputs.

    Exactly one bank encoder exists regardless of how many bank questions
    an example carries; with ``share_bank_encoder`` it is the same object
    as the first labeled-question encoder and is not stored twice.
    """

    def __init__(self, group: ParamGroup, embedding: Tensor, blstm1: BlstmParams,
                 bank_blstm: BlstmParams | None, attention: AttentionParams | None,
                 blstm2: BlstmParams | None, proj_w: Tensor, proj_b: Tensor):
        self.group = group
        self.embedding = embedding
        self.blstm1 = blstm1
        self.bank_blstm = bank_blstm
        self.attention = attention
        self.blstm2 = blstm2
        self.proj_w = proj_w
        self.proj_b = proj_b
        self.bank_memo = BankMemo()

    @classmethod
    def build(cls, cfg: SanConfig, vocab_size: int, rng: np.random.Generator,
              pretrained: EmbeddingMatrix | None = None) -> "SanParams":
        group = ParamGroup()
        if pretrained is not None:
            if pretrained.dim != cfg.embedding_dim:
                raise ValueError(
                    f"pretrained dim {pretrained.dim} != config embedding_dim {cfg.embedding_dim}")
            if pretrained.vectors.shape[0] != vocab_size:
                raise ValueError("pretrained embedding rows != vocabulary size")
            vectors = pretrained.vectors.copy()
        else:
            vectors = (rng.random((vocab_size, cfg.embedding_dim)) - 0.5) / cfg.embedding_dim
            vectors[0] = 0.0
        embedding = group.add("embedding", vectors)

        blstm1 = init_blstm(group, "blstm1", cfg.embedding_dim, cfg.hidden_size, rng)
        bank_blstm = attention = blstm2 = None
        if cfg.has_bank:
            if cfg.share_bank_encoder:
                bank_blstm = blstm1
            else:
                bank_blstm = init_blstm(group, "bank", cfg.embedding_dim, cfg.hidden_size, rng)
            attention = init_attention(group, "attention", cfg.encoder_width,
                                       cfg.attention_dim, rng)
        if cfg.has_layer2:
            blstm2 = init_blstm(group, "blstm2", cfg.augmented_width, cfg.hidden_size, rng)
        proj_w = group.add("proj.w", glorot(rng, (len(cfg.labels), cfg.projection_width)))
        proj_b = group.add("proj.b", np.zeros(len(cfg.labels)))
        return cls(group, embedding, blstm1, bank_blstm, attention, blstm2, proj_w, proj_b)


def forward_batch(batch: Batch, params: SanParams, cfg: SanConfig,
                  training: bool = False, rng: np.random.Generator | None = None,
                  want_trace: bool = False) -> tuple[Tensor, list[AttentionTrace] | None]:
    """Per-token label distributions for a batch: (B, T, |L|) plus traces.

    Valid rows sum to one; padded rows come out of the projection of zero
    features and must be excluded by every consumer (the loss and the
    decoder both do).  Bank words come from ``params.bank_memo`` with no
    tape active, and from the bank BLSTM and ``transform_bank`` under one.
    """
    if batch.ids.shape[1] != cfg.max_len:
        raise ValueError(
            f"batch length {batch.ids.shape[1]} != configured max_len {cfg.max_len}; "
            "input was not preprocessed")
    if training and cfg.dropout > 0.0 and rng is None:
        raise ValueError("training-mode forward needs an rng for dropout")

    emb = gather_rows(params.embedding, batch.ids)
    hq1 = blstm_forward(emb, batch.mask, params.blstm1,
                        dropout_rate=cfg.dropout, training=training, rng=rng)
    traces = None
    if cfg.has_bank:
        b_sz, n_banks, t_len = batch.bank_ids.shape
        if n_banks == 0:
            words = Tensor(np.zeros((b_sz, 0, t_len, cfg.attention_dim)), const=True)
        elif _tape() is None:
            words = Tensor(params.bank_memo.bank_words(batch.bank_ids, batch.bank_mask, params),
                           const=True)
        else:
            bank = blstm_forward(gather_rows(params.embedding, batch.bank_ids),
                                 batch.bank_mask, params.bank_blstm)
            words = transform_bank(bank, batch.bank_mask, params.attention)
        hq2, traces = bank_attend_batch(hq1, batch.mask, words, batch.bank_mask,
                                        batch.bank_valid, params.attention,
                                        want_trace=want_trace)
    else:
        hq2 = hq1
    if cfg.has_layer2:
        feats = blstm_forward(hq2, batch.mask, params.blstm2,
                              dropout_rate=cfg.dropout, training=training, rng=rng)
    else:
        feats = hq2
    logits = linear(feats, params.proj_w, params.proj_b)
    probs = softmax(logits, axis=-1)
    return probs, traces


def _check_one_hot(gold: np.ndarray, valid: np.ndarray) -> None:
    rows = gold[valid > 0]
    ok = np.all((rows == 0.0) | (rows == 1.0)) and np.all(rows.sum(axis=-1) == 1.0)
    if not ok:
        raise ValueError("gold labels must be one-hot over the label set")


def batch_loss(probs: Tensor, gold: np.ndarray, valid: np.ndarray) -> Tensor:
    """Summed cross entropy over examples and their valid positions, as
    one node: -sum log p at the gold labels, with gradient -y / p.

    Padding never contributes; teaching the model the pad label would
    distort the class balance.  There is no clamp: a confidently wrong
    token costs its full -log p and keeps its gradient (through the
    softmax node that is p - y).  A gold probability that underflows to
    exactly 0 gives an infinite loss, which is a NonFiniteError.
    """
    probs = astensor(probs)
    gold = np.asarray(gold, dtype=float)
    valid = np.asarray(valid, dtype=float)
    _check_one_hot(gold, valid)
    picked = np.asarray(gold * valid[..., None], dtype=probs.data.dtype)
    hit = picked > 0
    with np.errstate(divide="ignore"):
        log_p = np.log(probs.data, out=np.zeros_like(probs.data), where=hit)
    out = Tensor(-(log_p * picked).sum())
    tape = _tape()
    if tape is not None:
        def backward(g):
            return (None if probs.const else
                    np.divide(-g * picked, probs.data, out=np.zeros_like(probs.data), where=hit),)
        tape._nodes.append((out, (probs,), backward))
    return out


def predict_tags(probs: np.ndarray, valid) -> list[str]:
    """Per-token argmax over valid positions; an exact F/O tie goes to O."""
    valid = np.asarray(valid)
    out = []
    for t in range(probs.shape[0]):
        if valid[t] <= 0:
            continue
        out.append(LABELS[F_INDEX] if probs[t, F_INDEX] > probs[t, O_INDEX]
                   else LABELS[O_INDEX])
    return out


@dataclass(frozen=True)
class FunctionSpan:
    start: int
    end: int  # inclusive
    text: str


def extract_spans(tags: list[str], tokens: list[str]) -> list[FunctionSpan]:
    """Maximal contiguous F runs.  EOS separators terminate a span and are
    never inside one, whatever their predicted tag."""
    spans = []
    start = None
    for t, (tag, token) in enumerate(zip(tags, tokens)):
        in_span = tag == LABELS[F_INDEX] and token != EOS_TOKEN
        if in_span and start is None:
            start = t
        elif not in_span and start is not None:
            spans.append(FunctionSpan(start, t - 1, " ".join(tokens[start:t])))
            start = None
    if start is not None:
        spans.append(FunctionSpan(start, len(tags) - 1,
                                  " ".join(tokens[start:len(tags)])))
    return spans


def save_model(path, params: SanParams, cfg: SanConfig, vocab: Vocabulary) -> None:
    """Versioned JSON checkpoint; tensors as base64 little-endian float64."""
    tensors = {}
    for name, t in params.group.items():
        tensors[name] = {
            "shape": list(t.shape),
            "data": base64.b64encode(np.ascontiguousarray(t.data, dtype="<f8").tobytes()).decode("ascii"),
        }
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": {**cfg.to_dict(), "vocab": vocab.id_to_token},
        "tensors": tensors,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_model(path, expected: SanConfig | None = None) -> tuple[SanParams, SanConfig, Vocabulary]:
    """Load a checkpoint; with ``expected`` given, refuse variant or shape
    disagreements instead of silently rewiring."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise CheckpointError(f"{path}: not a JSON checkpoint") from err
    if not isinstance(payload, dict) or not isinstance(payload.get("config", {}), dict):
        raise CheckpointError(f"{path}: checkpoint or its config is not a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    config_dict = dict(payload.get("config", {}))
    vocab_tokens = config_dict.pop("vocab", None)
    if not vocab_tokens:
        raise CheckpointError("checkpoint lacks the vocabulary")
    for f in dataclasses.fields(SanConfig):
        value = config_dict.get(f.name)
        if f.name in config_dict and f.type in _JSON_TYPES and not json_type_ok(f.type, value):
            raise CheckpointError(f"checkpoint config {f.name!r}: expected {f.type}, got {value!r}")
    labels = config_dict.get("labels", [])
    if not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise CheckpointError(f"checkpoint config 'labels': expected a list of strings, got {labels!r}")
    cfg = SanConfig.from_dict(config_dict)
    vocab = Vocabulary(vocab_tokens)
    if expected is not None and expected.variant != cfg.variant:
        raise CheckpointError(
            f"checkpoint variant {cfg.variant!r} is incompatible with the "
            f"requested {expected.variant!r} configuration")

    params = SanParams.build(cfg, len(vocab), np.random.default_rng(0))
    stored = payload.get("tensors", {})
    expected_names = set(params.group.names())
    missing = expected_names - set(stored)
    extra = set(stored) - expected_names
    if missing:
        raise CheckpointError(f"checkpoint missing tensor {sorted(missing)[0]!r}")
    if extra:
        raise CheckpointError(f"checkpoint has unexpected tensor {sorted(extra)[0]!r}")
    for name, t in params.group.items():
        try:
            shape = tuple(stored[name]["shape"])
            arr = np.frombuffer(base64.b64decode(stored[name]["data"]), dtype="<f8")
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointError(f"tensor {name!r} has a malformed entry: {err!r}") from err
        if shape != t.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {list(shape)}, expected {list(t.shape)}")
        if arr.size != t.size:
            raise CheckpointError(f"tensor {name!r} payload size mismatch")
        t.data[...] = arr.reshape(shape)
        if not np.all(np.isfinite(t.data)):
            raise NonFiniteError(f"tensor {name!r} holds non-finite values")
    return params, cfg, vocab
