"""The full tagger: embedding -> BLSTM -> bank attention -> BLSTM ->
projection -> per-token softmax, with the two ablation wirings.

Variants:
  san           full model with bank attention and the second BLSTM
  sblstm        supervised stacked BLSTM; the bank branch is absent, so
                outputs are exactly independent of bank contents
  san-noblstm2  bank attention but no second BLSTM; the projection reads
                the concatenated representation directly

Layers pass packed rows: every node, the projection included, outputs
one row per valid question token (``batch.mask``) or bank token
(``batch.bank_mask``) in the row-major order ``a[mask > 0]`` gives, so
padding is never computed or stored.  ``Probabilities`` scatters the
logits' softmax into (B, T, |L|) outside the tape and keeps the logits
for ``batch_loss``.  Under a tape a ``san`` training step with dropout
records 9 nodes: two embedding lookups, one ``blstm_forward`` per BLSTM
(dropout included), ``transform_bank``, ``bank_attend_batch``, the
projection and ``batch_loss``.  Checkpoints are a versioned ``.npz`` of
little-endian float64 tensors; round trips are bit-exact.

Bank memo: ``SanParams.bank_words`` is a forward's one source of bank
words.  In eval (no tape active) the same pool questions recur in bank
after bank, so it keeps a memo of transformed bank words, tanh(W_k h +
b_k) at a bank question's valid positions, keyed on its valid token-id
prefix (its length is part of the key, so a PAD id inside a valid prefix
never looks like padding).  A tape-free forward encodes only the rows the
memo lacks and gets the packed words of the batch, its entries
concatenated.  Parameters change only through their ``ParamGroup``,
which counts the writes to each tensor; the memo drops every entry when
the counts of the tensors the words read (``SanParams.bank_sources``)
differ from those it was filled at, so a write to them costs a
recompute, never a stale answer, and a write to any other tensor costs
nothing.  An entry takes len * A * 8 bytes at float64 and lives until
the next such write.  A forward under a tape never reads or fills the
memo.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import zipfile
from dataclasses import dataclass

import numpy as np

from .attention import (AttentionParams, AttentionTrace, bank_attend_batch,
                        init_attention, transform_bank)
from .autodiff import NonFiniteError, Tensor, _tape, gather_rows, linear, record, softmax
from .data import BANK_SIZE, Batch, LABELS, F_INDEX, MAX_LEN, O_INDEX
from .embeddings import EmbeddingMatrix
from .lstm import BlstmParams, blstm_forward, glorot, init_blstm
from .optim import ParamGroup
from .vocab import EOS_TOKEN, Vocabulary

VARIANTS = ("san", "sblstm", "san-noblstm2")

CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """Checkpoint container is malformed or incompatible."""


# The JSON value types a config field of each annotation accepts; a bool
# is never a number.  Checkpoint configs and CLI run configs share it.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


def json_type_ok(kind: str, value) -> bool:
    return isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)


@dataclass
class SanConfig:
    """Model hyperparameters.  The label set is the fixed F/O pair,
    ``data.LABELS``."""
    embedding_dim: int = 100
    hidden_size: int = 100
    attention_dim: int = 100
    max_len: int = MAX_LEN
    bank_size: int = BANK_SIZE
    dropout: float = 0.2
    variant: str = "san"
    seed: int = 13

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
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


class SanParams:
    """All trainable tensors, registered by name in one ParamGroup, plus
    the eval-time memo ``bank_words`` serves.  Over its lifetime
    ``bank_encoded`` counts rows the memo encoded and ``bank_served`` rows
    it answered; every non-empty bank row of a tape-free forward adds one
    to either.

    Exactly one bank encoder, ``bank_blstm`` (tensors ``bank.*``), exists
    regardless of how many bank questions an example carries; it is
    separate from ``blstm1``, which encodes the labeled questions.
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
        self.bank_encoded = self.bank_served = 0
        self._memo_lock = threading.Lock()
        self._memo: dict[bytes, np.ndarray] = {}
        self._memo_writes: tuple[int, ...] = ()   # the sources' write counts the memo was filled at

    def bank_sources(self) -> list[str]:
        """Names of the tensors the bank words are computed from."""
        return ["embedding", "attention.w_k", "attention.b_k",
                *(f"bank.{d}.{w}" for d in ("fwd", "bwd") for w in ("w_x", "w_h", "b"))]

    def encode_bank(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """(M, A) transformed words of the bank questions ``ids`` under
        ``mask``, one row per valid position in ``a[mask > 0]`` order."""
        embedded = gather_rows(self.embedding, ids[mask > 0])
        return transform_bank(blstm_forward(embedded, mask, self.bank_blstm), self.attention)

    def bank_words(self, bank_ids: np.ndarray, bank_mask: np.ndarray) -> Tensor:
        """(M, A) transformed words, one row per valid position of
        ``bank_mask``, in the row-major order ``a[bank_mask > 0]`` gives:
        from ``encode_bank`` under a tape when there are bank slots, else
        from the memo (see the module docstring)."""
        if _tape() is not None and bank_ids.shape[1]:
            return self.encode_bank(bank_ids, bank_mask)
        ids = np.asarray(bank_ids, dtype=np.int64).reshape(-1, bank_ids.shape[-1])
        mask = np.asarray(bank_mask).reshape(ids.shape)
        lengths = mask.sum(axis=1).astype(np.intp)
        keys = [(r, ids[r, :n].tobytes()) for r, n in enumerate(lengths) if n]
        writes = tuple(self.group.writes[name] for name in self.bank_sources())
        with self._memo_lock:
            if self._memo_writes != writes:
                self._memo, self._memo_writes = {}, writes
            fresh: dict[bytes, int] = {}   # key -> first row holding it
            for r, key in keys:
                if key not in self._memo:
                    fresh.setdefault(key, r)
            if fresh:
                rows = list(fresh.values())
                encoded = self.encode_bank(ids[rows], mask[rows]).data
                self._memo.update(zip(fresh, np.split(encoded, np.cumsum(lengths[rows])[:-1])))
            words = [self._memo[key] for _, key in keys]
            self.bank_encoded += len(fresh)
            self.bank_served += len(keys) - len(fresh)
        if not words:
            return Tensor(np.zeros((0, self.attention.dim), dtype=self.group.dtype))
        return Tensor(np.concatenate(words))

    @classmethod
    def build(cls, cfg: SanConfig, vocab_size: int, rng: np.random.Generator,
              pretrained: EmbeddingMatrix | None = None,
              dtype=np.float64) -> "SanParams":
        """Fresh parameters in a ``ParamGroup`` of ``dtype`` (float64 or float32)."""
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
        return cls._assemble(cfg, ParamGroup(dtype), vectors, rng)

    @classmethod
    def _assemble(cls, cfg: SanConfig, group: ParamGroup, vectors: np.ndarray,
                  rng: np.random.Generator) -> "SanParams":
        """Parameters around the embedding ``vectors``, the other tensors
        drawn from ``rng``, registered in ``group``."""
        embedding = group.add("embedding", vectors)
        blstm1 = init_blstm(group, "blstm1", cfg.embedding_dim, cfg.hidden_size, rng)
        bank_blstm = attention = blstm2 = None
        if cfg.has_bank:
            bank_blstm = init_blstm(group, "bank", cfg.embedding_dim, cfg.hidden_size, rng)
            attention = init_attention(group, "attention", cfg.encoder_width,
                                       cfg.attention_dim, rng)
        if cfg.has_layer2:
            blstm2 = init_blstm(group, "blstm2", cfg.augmented_width, cfg.hidden_size, rng)
        proj_w = group.add("proj.w", glorot(rng, (len(LABELS), cfg.projection_width)))
        proj_b = group.add("proj.b", np.zeros(len(LABELS)))
        return cls(group, embedding, blstm1, bank_blstm, attention, blstm2, proj_w, proj_b)


class Probabilities(Tensor):
    """(B, T, |L|) label distributions: the softmax of the packed (n, |L|)
    ``logits`` at the valid positions of ``mask``, exactly 0 elsewhere.
    Built outside the tape; ``batch_loss`` differentiates ``logits``."""

    __slots__ = ("logits", "valid")

    def __init__(self, logits: Tensor, mask):
        valid = np.asarray(mask) > 0
        data = np.zeros(valid.shape + (len(LABELS),), dtype=logits.data.dtype)
        data[valid] = softmax(logits.data)
        super().__init__(data)
        self.logits, self.valid = logits, valid


def forward_batch(batch: Batch, params: SanParams, cfg: SanConfig,
                  training: bool = False, rng: np.random.Generator | None = None,
                  want_trace: bool = False) -> tuple[Probabilities, list[AttentionTrace] | None]:
    """Per-token label distributions for a batch: (B, T, |L|) plus traces.

    Valid rows sum to one; padded rows are exactly zero.  Bank words come
    from ``params.bank_words``.  ``training`` turns on dropout at rate
    ``cfg.dropout``, drawn from ``rng``.
    """
    if batch.ids.shape[1] != cfg.max_len:
        raise ValueError(
            f"batch length {batch.ids.shape[1]} != configured max_len {cfg.max_len}; "
            "build examples with make_example at that max_len")
    dropout = cfg.dropout if training else 0.0

    emb = gather_rows(params.embedding, batch.ids[batch.mask > 0])
    hq1 = blstm_forward(emb, batch.mask, params.blstm1, dropout_rate=dropout, rng=rng)
    traces = None
    if cfg.has_bank:
        words = params.bank_words(batch.bank_ids, batch.bank_mask)
        hq2, traces = bank_attend_batch(hq1, batch.mask, words, batch.bank_mask,
                                        params.attention, want_trace=want_trace)
    else:
        hq2 = hq1
    if cfg.has_layer2:
        hq2 = blstm_forward(hq2, batch.mask, params.blstm2, dropout_rate=dropout, rng=rng)
    return Probabilities(linear(hq2, params.proj_w, params.proj_b), batch.mask), traces


def batch_loss(probs: Probabilities, gold: np.ndarray, valid: np.ndarray) -> Tensor:
    """Summed cross entropy over examples and their valid positions, as
    one node on ``probs.logits``: per token the max-shifted log-sum-exp of
    its logits minus the logit its ``gold`` label id picks (``Batch.gold``,
    (B, T), read at valid positions only), with gradient p less 1 there.

    Padding never contributes; teaching the model the pad label would
    distort the class balance.  There is no clamp and no division by a
    probability: a confidently wrong token costs its full logit gap and
    keeps its gradient however far its softmax saturates.
    """
    if not isinstance(probs, Probabilities):
        raise TypeError("batch_loss takes the Probabilities forward_batch returns")
    valid = np.asarray(valid) > 0
    if not np.array_equal(valid, probs.valid):
        raise ValueError("valid is not the mask the logits were packed from")
    y = np.asarray(gold)[valid]
    if y.dtype.kind not in "iu" or np.any((y < 0) | (y >= len(LABELS))):
        raise ValueError(f"gold must hold integer ids of the labels {LABELS}")
    logits = probs.logits.data
    top = logits.max(axis=-1, keepdims=True)
    z = np.exp(logits - top).sum(axis=-1, keepdims=True)
    loss = (top + np.log(z) - np.take_along_axis(logits, y[:, None], axis=-1)).sum()
    delta = probs.data[valid]
    delta[np.arange(len(y)), y] -= 1.0
    return record(Tensor(loss), (probs.logits,), lambda g: (g * delta,))


def predict_tags(probs: np.ndarray, valid) -> list[str]:
    """Per-token argmax over valid positions; an exact F/O tie goes to O."""
    rows = probs[np.asarray(valid) > 0]
    return np.where(rows[:, F_INDEX] > rows[:, O_INDEX],
                    LABELS[F_INDEX], LABELS[O_INDEX]).tolist()


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
    """Versioned checkpoint: an uncompressed ``.npz`` written to exactly
    ``path``, one little-endian float64 array per parameter name plus
    ``__meta__``, the UTF-8 JSON of the format version and the config."""
    config = {**dataclasses.asdict(cfg), "vocab": vocab.id_to_token}
    meta = json.dumps({"format_version": CHECKPOINT_VERSION, "config": config}, sort_keys=True)
    tensors = {name: np.asarray(t.data, dtype="<f8") for name, t in params.group.items()}
    with open(path, "wb") as fh:   # a path argument would gain a .npz suffix
        np.savez(fh, __meta__=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8), **tensors)


def load_model(path) -> tuple[SanParams, SanConfig, Vocabulary]:
    """Load a checkpoint, refusing a config ``SanConfig`` rejects and a
    tensor table ``ParamGroup.load_values`` rejects: a tensor the variant
    does not have, one it lacks, or a shape that differs."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as npz:
                tensors = {name: npz[name] for name in npz.files}
            payload = json.loads(tensors.pop("__meta__").tobytes().decode("utf-8"))
        except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as err:
            raise CheckpointError(f"{path}: not a format_version {CHECKPOINT_VERSION} checkpoint "
                                  f"({err!r}); retrain JSON checkpoints of format 1 or 2") from err
    if not isinstance(payload, dict) or not isinstance(payload.get("config", {}), dict):
        raise CheckpointError(f"{path}: checkpoint or its config is not a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    config_dict = dict(payload.get("config", {}))
    vocab_tokens = config_dict.pop("vocab", None)
    # Format-3 files from before the bank encoder was always separate carry
    # this key; false is the one wiring there is.
    if config_dict.pop("share_bank_encoder", False) is not False:
        raise CheckpointError("checkpoint config 'share_bank_encoder' must be false: "
                              "the bank encoder is always separate")
    if not (isinstance(vocab_tokens, list) and all(isinstance(t, str) for t in vocab_tokens)):
        raise CheckpointError("checkpoint vocabulary is not a list of strings")
    for f in dataclasses.fields(SanConfig):
        if f.name not in config_dict:
            raise CheckpointError(f"checkpoint config lacks {f.name!r}")
        value = config_dict[f.name]
        if not json_type_ok(f.type, value):
            raise CheckpointError(f"checkpoint config {f.name!r}: expected {f.type}, got {value!r}")
    unknown = sorted(set(config_dict) - {f.name for f in dataclasses.fields(SanConfig)})
    if unknown:
        raise CheckpointError(f"checkpoint config has unknown keys {unknown}")
    try:
        cfg = SanConfig(**config_dict)
    except ValueError as err:
        raise CheckpointError(f"checkpoint config: {err}") from err
    try:
        vocab = Vocabulary(vocab_tokens)
    except ValueError as err:
        raise CheckpointError(f"checkpoint vocabulary: {err}") from err
    for name, arr in tensors.items():
        if arr.dtype != np.dtype("<f8"):
            raise CheckpointError(f"tensor {name!r} is {arr.dtype.str}, not <f8")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"tensor {name!r} holds non-finite values")

    # The group adopts the loaded embedding uncopied, so load_values writes
    # it onto itself.  One of another shape is left to load_values to
    # report, over untouched zero pages; the other tensors are small, and
    # their draws are overwritten.
    shape = (len(vocab), cfg.embedding_dim)
    embedding = tensors.get("embedding")
    if embedding is None or embedding.shape != shape:
        embedding = np.zeros(shape)
    params = SanParams._assemble(cfg, ParamGroup(), embedding, np.random.default_rng(0))
    try:
        params.group.load_values(tensors)
    except ValueError as err:
        raise CheckpointError(f"checkpoint tensors: {err}") from err
    return params, cfg, vocab
