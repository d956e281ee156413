"""Acceptance suite: one test per release criterion, at the stated
tolerances.  Criterion 8 only runs when an annotated corpus is supplied
via the FNR_ANNOTATED_CORPUS environment variable (see README)."""

import dataclasses
import hashlib
import math
import os
import platform
import time
import numpy as np
import pytest

from fnr.attention import init_attention
from fnr.autodiff import Tape, Tensor
from fnr.cli import main
from fnr.data import CorpusSplit, QaRecord, collate, corpus_stats, load_corpus, make_example, save_corpus, split
from fnr.embeddings import EmbeddingMatrix, SgnsConfig, train_skipgram
from fnr.model import Probabilities, SanConfig, SanParams, batch_loss, forward_batch
from fnr.optim import ParamGroup, grad_check
from fnr.retrieval import Bm25Index, build_bank
from fnr.training import TrainConfig, evaluate, train
from fnr.vocab import build_vocab
from checkpoint_files import read_checkpoint
from test_attention import attend_one


def test_c1_gradient_correctness(tiny_vocab, fig_example):
    """Full-model gradients vs central differences, all variants, < 60 s."""
    assert len(tiny_vocab) == 12
    batch = collate([fig_example])
    started = time.monotonic()
    for variant in ("san", "sblstm", "san-noblstm2"):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant=variant, seed=1)
        params = SanParams.build(cfg, len(tiny_vocab), np.random.default_rng(7))

        def loss(group):
            probs, _ = forward_batch(batch, params, cfg)
            return batch_loss(probs, batch.gold, batch.mask)

        err = grad_check(loss, params.group, h=1e-5)
        assert err < 1e-4, f"{variant}: max relative error {err}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_c2_attention_invariants():
    """100 random instances: simplex weights, masked zeros, permutation
    invariance at 1e-12, PAD extension bit-for-bit."""
    rng = np.random.default_rng(2024)
    group = ParamGroup()
    p = init_attention(group, "a", 6, 4, rng)
    for _ in range(100):
        t_q = int(rng.integers(1, 5))
        n_banks = int(rng.integers(1, 4))
        hq1 = rng.normal(size=(t_q, 6))
        banks, masks = [], []
        for _ in range(n_banks):
            t_u = int(rng.integers(1, 5))
            valid = int(rng.integers(1, t_u + 1))
            banks.append(rng.normal(size=(t_u, 6)))
            masks.append(np.array([1.0] * valid + [0.0] * (t_u - valid)))
        hq2, trace = attend_one(hq1, banks, masks, p)

        assert np.all(trace.level1_weights >= 0.0)
        assert np.all(trace.level2_weights >= 0.0)
        for n, m in enumerate(masks):
            w = trace.level1_weights[:, n, :]
            assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-9)
            masked_cols = np.concatenate([1.0 - m, np.ones(w.shape[1] - m.shape[0])]) > 0
            assert np.array_equal(w[:, masked_cols], np.zeros_like(w[:, masked_cols]))
        assert np.allclose(trace.level2_weights.sum(axis=-1), 1.0, atol=1e-9)

        perm = list(rng.permutation(n_banks))
        permuted, _ = attend_one(hq1, [banks[i] for i in perm], [masks[i] for i in perm], p)
        assert np.allclose(hq2, permuted, atol=1e-12, rtol=0)

        # PAD extension at the model's fixed padded width is bit-for-bit.
        width = 8
        base_fixed, _ = attend_one(hq1, banks, masks, p, width=width)
        ext_banks, ext_masks = [], []
        for b, m in zip(banks, masks):
            extra = int(rng.integers(1, 3))
            ext_banks.append(np.vstack([b, rng.normal(size=(extra, 6))]))
            ext_masks.append(np.concatenate([m, np.zeros(extra)]))
        hq2_ext, _ = attend_one(hq1, ext_banks, ext_masks, p, width=width)
        assert np.array_equal(base_fixed, hq2_ext)


def test_c3_ablation_wiring(tmp_path, tiny_vocab):
    """S-BLSTM ignores banks exactly; no-BLSTM2 checkpoints lack layer 2."""
    cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                    bank_size=2, dropout=0.0, variant="sblstm", seed=3)
    params = SanParams.build(cfg, len(tiny_vocab), np.random.default_rng(3))
    rec = QaRecord("p", "c", ["works", "with", "iphone", "?"], tags=["F", "F", "F", "O"])
    bank_a = [QaRecord("a", "c", ["video", "calls"]),
              QaRecord("a2", "c", ["good", "?"])]
    bank_b = [QaRecord("b", "c", ["does", "it", "does"])]
    ex_a = make_example(rec, bank_a, tiny_vocab, max_len=6, bank_size=2)
    ex_b = make_example(rec, bank_b, tiny_vocab, max_len=6, bank_size=2)
    pa, _ = forward_batch(collate([ex_a]), params, cfg)
    pb, _ = forward_batch(collate([ex_b]), params, cfg)
    assert np.array_equal(pa.data, pb.data)

    nob_cfg = dataclasses.replace(cfg, variant="san-noblstm2")
    nob_params = SanParams.build(nob_cfg, len(tiny_vocab), np.random.default_rng(3))
    from fnr.model import save_model
    path = tmp_path / "noblstm2.npz"
    save_model(path, nob_params, nob_cfg, tiny_vocab)
    _, tensors = read_checkpoint(path)
    assert not any(name.startswith("blstm2.") for name in tensors)


OVERFIT_WORDS = ["works", "with", "iphone", "?", "does", "it", "play", "video",
                 "calls", "games", "support", "bluetooth", "run", "windows",
                 "stream", "music", "read", "books", "charge", "fast"]


def _overfit_fixture(rng):
    """20 labeled questions (first one is the reference example) plus an
    unlabeled same-category pool used to retrieve banks."""
    records = [QaRecord("fig", "laptop", ["Works", "with", "iphone", "?"],
                        tags=["F", "F", "F", "O"])]
    for i in range(19):
        n = int(rng.integers(3, 7))
        toks = [OVERFIT_WORDS[j] for j in rng.choice(len(OVERFIT_WORDS), size=n,
                                                     replace=False)]
        tags = ["F" if rng.random() < 0.4 else "O" for _ in toks]
        records.append(QaRecord(f"p{i}", "laptop", toks, tags=tags))
    pool = []
    for i in range(8):
        n = int(rng.integers(2, 6))
        toks = [OVERFIT_WORDS[j] for j in rng.choice(len(OVERFIT_WORDS), size=n,
                                                     replace=False)]
        pool.append(QaRecord(f"u{i}", "laptop", toks, line_no=i + 1))
    return records, pool


def test_c4_overfit_and_extract(tmp_path):
    """Tiny model reaches train span-F1 = 1.0 within 200 epochs (< 5 min)
    and the CLI then extracts the reference span."""
    rng = np.random.default_rng(41)
    records, pool = _overfit_fixture(rng)
    vocab = build_vocab([r.question_tokens for r in records] +
                        [r.question_tokens for r in pool])
    index = Bm25Index(pool)
    cfg = SanConfig(embedding_dim=16, hidden_size=10, attention_dim=10, max_len=10,
                    bank_size=3, dropout=0.1, variant="san", seed=11)
    examples = [make_example(r, build_bank(r, index, u_max=3), vocab,
                             max_len=10, bank_size=3) for r in records]
    data = CorpusSplit(train=examples, validation=examples, test=[])
    tcfg = TrainConfig(lr=0.01, batch_size=20, max_epochs=200, patience=199)
    started = time.monotonic()
    params, logs = train(cfg, tcfg, data, vocab)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"
    assert len(logs) <= 200
    metrics = evaluate(params, cfg, examples)
    assert metrics.span_f1 == 1.0

    from fnr.model import save_model
    ckpt = tmp_path / "overfit.npz"
    save_model(ckpt, params, cfg, vocab)
    pool_path = tmp_path / "pool.jsonl"
    save_corpus(pool_path, pool)
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["extract", "--model", str(ckpt),
                     "--question", "Works with iphone ?",
                     "--bank", str(pool_path)])
    assert code == 0
    assert buf.getvalue().strip() == "Works with iphone"


def test_c5_loss_sanity(tiny_vocab, fig_example, tiny_cfg):
    """Uniform logits cost ln 2 per valid token; perfect predictions ~0."""
    params = SanParams.build(tiny_cfg, len(tiny_vocab), np.random.default_rng(5))
    params.group.assign("proj.w", ..., 0.0)
    params.group.assign("proj.b", ..., 0.0)
    batch = collate([fig_example])
    probs, _ = forward_batch(batch, params, tiny_cfg)
    loss = batch_loss(probs, batch.gold, batch.mask)
    n_valid = int(batch.mask.sum())
    assert abs(loss.item() / n_valid - math.log(2)) < 1e-9

    perfect = Probabilities(Tensor(40.0 * (2.0 * batch.gold[batch.mask > 0] - 1.0)), batch.mask)
    assert batch_loss(perfect, batch.gold, batch.mask).item() < 1e-6


def _bank_task_corpus(rng, n_questions=25, train_reps=8, test_reps=4,
                      n_words=40, q_len=5, u=5):
    """Constructed oracle task: a token is tagged F iff it also appears in
    the example's bank.

    Each distinct question recurs with freshly drawn banks, and per
    (question, position) the supported flags are exactly balanced inside
    the train and test portions, so the question text alone carries zero
    label signal; only the bank determines the tags.
    """
    words = [f"w{i:02d}" for i in range(n_words)]
    questions = [rng.choice(n_words, size=q_len, replace=False)
                 for _ in range(n_questions)]

    def build(reps, flagged):
        examples = []
        flags = {}
        for qi in range(n_questions):
            for pos in range(q_len):
                f = np.zeros(reps, dtype=bool)
                f[:flagged] = True
                rng.shuffle(f)
                flags[qi, pos] = f
        for rep in range(reps):
            for qi, q_idx in enumerate(questions):
                toks = [words[j] for j in q_idx]
                support = [toks[p] for p in range(q_len) if flags[qi, p][rep]][:u]
                outside = [words[j] for j in range(n_words) if j not in set(q_idx)]
                rng.shuffle(outside)
                bank_words = support + outside[: u - len(support)]
                rng.shuffle(bank_words)
                bank = [QaRecord("pb", "cat", [w]) for w in bank_words]
                bank_set = set(bank_words)
                tags = ["F" if t in bank_set else "O" for t in toks]
                examples.append((QaRecord(f"q{qi}r{rep}", "cat", toks, tags=tags),
                                 bank))
        return examples

    return build(train_reps, 3), build(test_reps, 2)


def _run_bank_task(variant, seed):
    rng = np.random.default_rng(9000 + seed)
    train_corpus, test_corpus = _bank_task_corpus(rng)
    assert len(train_corpus) == 200 and len(test_corpus) == 100
    vocab = build_vocab([r.question_tokens for r, _ in train_corpus + test_corpus] +
                        [b.question_tokens for _, bk in train_corpus + test_corpus
                         for b in bk])
    max_len, u, hid = 6, 5, 24
    pretrained = EmbeddingMatrix(
        vocab, np.random.default_rng(500 + seed).normal(0.0, 0.4,
                                                        size=(len(vocab), hid)))
    train_ex = [make_example(r, b, vocab, max_len=max_len, bank_size=u)
                for r, b in train_corpus]
    test_ex = [make_example(r, b, vocab, max_len=max_len, bank_size=u)
               for r, b in test_corpus]
    data = CorpusSplit(train=train_ex[:160], validation=train_ex[160:], test=test_ex)
    cfg = SanConfig(embedding_dim=hid, hidden_size=hid, attention_dim=hid,
                    max_len=max_len, bank_size=u, dropout=0.0, variant=variant, seed=seed)
    tcfg = TrainConfig(lr=0.02, batch_size=32, max_epochs=300, patience=50)
    params, _ = train(cfg, tcfg, data, vocab, pretrained)
    return evaluate(params, cfg, test_ex).span_f1


def test_c6_semi_supervision_benefit():
    """On the bank-determined task, mean test span-F1 of the attention model
    beats the supervised stack by at least 0.10 over 5 seeds."""
    san_scores, sblstm_scores = [], []
    for seed in range(1, 6):
        san_scores.append(_run_bank_task("san", seed))
        sblstm_scores.append(_run_bank_task("sblstm", seed))
    gap = float(np.mean(san_scores) - np.mean(sblstm_scores))
    print(f"\nsan={san_scores} sblstm={sblstm_scores} gap={gap:.3f}")
    assert gap >= 0.10, f"mean span-F1 gap {gap:.3f} < 0.10"


C7_CONFIG = dict(embedding_dim=8, hidden_size=6, attention_dim=6, max_len=8, bank_size=2,
                 dropout=0.2)


@pytest.fixture(scope="module")
def c7_runs(tmp_path_factory):
    """``cmd_train`` twice with one seed on a 12-question corpus: each
    run's checkpoint path, checkpoint bytes and epoch-log bytes."""
    tmp_path = tmp_path_factory.mktemp("c7")
    corpus = tmp_path / "labeled.jsonl"
    rng = np.random.default_rng(0)
    records = []
    for i in range(12):
        n = int(rng.integers(3, 6))
        toks = [OVERFIT_WORDS[j] for j in rng.choice(len(OVERFIT_WORDS), size=n,
                                                     replace=False)]
        tags = ["F" if rng.random() < 0.4 else "O" for _ in toks]
        records.append(QaRecord(f"p{i}", "laptop", toks, tags=tags))
    save_corpus(corpus, records)
    settings = [f"{key}={value}" for key, value in C7_CONFIG.items()] + [
        "lr=0.01", "batch_size=8", "max_epochs=4", "patience=3"]
    runs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.npz"
        log = tmp_path / f"{tag}.jsonl"
        code = main(["train", "--corpus", str(corpus), "--out", str(ckpt),
                     "--epoch-log", str(log), "--seed", "21",
                     *[arg for item in settings for arg in ("--set", item)]])
        assert code == 0
        runs.append((ckpt, ckpt.read_bytes(), log.read_bytes()))
    return runs


def test_c7_determinism(c7_runs):
    """cmd_train twice with one seed: bit-identical checkpoints and logs."""
    (_, ckpt_a, log_a), (_, ckpt_b, log_b) = c7_runs
    assert ckpt_a == ckpt_b, "checkpoints differ"
    assert log_a == log_b, "epoch logs differ"
    print(f"\nc7 sha256: checkpoint {hashlib.sha256(ckpt_a).hexdigest()} "
          f"epoch log {hashlib.sha256(log_a).hexdigest()}")


def _digest(arrays) -> str:
    """sha256 over (name, dtype, shape, bytes) of each named array, in name order."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _bank_batch(rng, words, vocab, pool, n, cfg):
    """A batch of ``n`` labeled questions of random ``words``, each with up
    to ``cfg.bank_size`` bank questions drawn from ``pool``."""
    examples = []
    for i in range(n):
        toks = list(rng.choice(words, size=int(rng.integers(2, cfg.max_len + 1))))
        tags = ["F" if rng.random() < 0.3 else "O" for _ in toks]
        bank = [pool[j] for j in rng.choice(len(pool), size=int(rng.integers(0, cfg.bank_size + 1)),
                                            replace=False)]
        examples.append(make_example(QaRecord(f"q{i}", "cat", toks, tags=tags), bank, vocab,
                                     max_len=cfg.max_len, bank_size=cfg.bank_size))
    return collate(examples)


def _digest_fixture(words, cfg, seed, n_pool, batches, batch_size):
    """Fixed-seed ``san`` weights, a pool of ``n_pool`` random questions and
    ``batches`` batches whose banks share them."""
    rng, vocab = np.random.default_rng(seed), build_vocab([words])
    params = SanParams.build(cfg, len(vocab), rng)
    pool = [QaRecord(f"b{i}", "cat", list(rng.choice(words, size=int(rng.integers(1, cfg.max_len + 1)))))
            for i in range(n_pool)]
    return rng, params, [_bank_batch(rng, words, vocab, pool, batch_size, cfg)
                         for _ in range(batches)]


def _eval_probabilities():
    """Tape-free probabilities of two batches at the paper's dims (T=40,
    U=5, H=A=d=100), through the bank memo."""
    cfg = SanConfig(seed=36)
    _, params, batches = _digest_fixture([f"w{i}" for i in range(300)], cfg, 36, 24, 2, 12)
    return {f"batch{b}": forward_batch(batch, params, cfg)[0].data
            for b, batch in enumerate(batches)}


def _san_step_gradients():
    """Leaf gradients of one taped ``san`` training step, dropout on, at
    c7's dims with non-empty banks."""
    cfg = SanConfig(**C7_CONFIG, seed=37)
    rng, params, (batch,) = _digest_fixture(OVERFIT_WORDS, cfg, 37, 10, 1, 8)
    with Tape() as tape:
        probs, _ = forward_batch(batch, params, cfg, training=True, rng=rng)
        loss = batch_loss(probs, batch.gold, batch.mask)
    grads = tape.gradients(loss)
    return {name: grads[t] for name, t in params.group.items()}


def _environment() -> dict:
    """What the pinned bits depend on besides the code.  Unset,
    ``OPENBLAS_NUM_THREADS`` means one BLAS thread per usable CPU, and the
    bank transform's small GEMMs round differently under 1 and 2 threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"), "cpus": cpus,
            "machine": platform.machine()}


# The environment the digests below were read in, and the digests.
PINNED_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
                      "OPENBLAS_NUM_THREADS": None, "cpus": 2, "machine": "x86_64"}
PINNED_DIGESTS = {
    "c7 checkpoint tensors": "ff2c762472ef1b8c86320772318cc92cb4de5b1a6531b0230206e5992738dd2e",
    "c7 epoch log": "e91dd8395b86317e4fb4014d46ba30114441ac8faf9067851310083e06e5552a",
    "paper-dims eval probabilities":
        "0873808477ab96d94a69b74b3c164db02993379a38a3fd6387cb47701fb3a26a",
    "san step gradients": "68ecdeb9fec65bca61db471837a4e98f0ae8aae0b8866913e3b7ddd2e83e4a6f",
}


def test_pinned_digests(c7_runs):
    """The determinism fixture's outputs are the pinned bits: c7's
    checkpoint tensors and epoch log, eval probabilities at the paper's
    dims and one taped ``san`` step's gradients.  A change that moves
    them on purpose updates ``PINNED_DIGESTS`` in the same diff."""
    ckpt, _, log = c7_runs[0]
    got = {
        "c7 checkpoint tensors": _digest(read_checkpoint(ckpt)[1]),
        "c7 epoch log": hashlib.sha256(log).hexdigest(),
        "paper-dims eval probabilities": _digest(_eval_probabilities()),
        "san step gradients": _digest(_san_step_gradients()),
    }
    env = _environment()
    print(f"\npinned-digest environment {env}\ndigests {got}")
    if env != PINNED_ENVIRONMENT:
        pytest.skip(f"digests are pinned for {PINNED_ENVIRONMENT}, not {env}; "
                    f"this environment's digests: {got}")
    assert got == PINNED_DIGESTS


ANNOTATED = os.environ.get("FNR_ANNOTATED_CORPUS")
RAW = os.environ.get("FNR_RAW_CORPUS")


@pytest.mark.skipif(not ANNOTATED, reason="set FNR_ANNOTATED_CORPUS to run")
def test_c8_official_corpus(tmp_path):
    """Conditional replication tier: totals row, then a directional
    comparison of the full model against the supervised stack."""
    records = load_corpus(ANNOTATED)
    stats = corpus_stats(records)
    assert stats.total_qa == 4999
    assert f"{stats.total_pct:.2f}" == "51.07"

    labeled = [r for r in records if r.labeled]
    pool = [r for r in records if not r.labeled]
    if RAW:
        raw_records = load_corpus(RAW)
        assert len(raw_records) >= 100_000
        sgns_corpus = [r.question_tokens for r in raw_records]
        pool = pool or raw_records
    else:
        sgns_corpus = [r.question_tokens for r in records]
    pretrained = train_skipgram(sgns_corpus, SgnsConfig(dim=64, epochs=1),
                                np.random.default_rng(1))
    vocab = pretrained.vocab

    index = Bm25Index(pool) if pool else None
    examples = []
    for rec in labeled:
        bank = build_bank(rec, index, u_max=5) if index else []
        examples.append(make_example(rec, bank, vocab, max_len=40, bank_size=5))
    data = split(examples, seed=13)
    results = {}
    for variant in ("san", "sblstm"):
        cfg = SanConfig(embedding_dim=64, hidden_size=64, attention_dim=64,
                        max_len=40, bank_size=5, dropout=0.2, variant=variant,
                        seed=13)
        tcfg = TrainConfig(lr=0.001, batch_size=256, max_epochs=15, patience=4)
        params, _ = train(cfg, tcfg, data, vocab, pretrained)
        results[variant] = evaluate(params, cfg, data.test)
    san, sblstm = results["san"], results["sblstm"]
    print(f"\nsan span P/R/F1 = {san.span_precision:.3f}/{san.span_recall:.3f}/"
          f"{san.span_f1:.3f}; sblstm = {sblstm.span_precision:.3f}/"
          f"{sblstm.span_recall:.3f}/{sblstm.span_f1:.3f}")
    from fnr.training import PUBLISHED_RESULTS
    target = PUBLISHED_RESULTS["san"]["f1"]
    print(f"informational: |san F1 - {target}| = {abs(san.span_f1 - target):.3f}")
    assert san.span_f1 >= sblstm.span_f1
    assert san.span_recall > sblstm.span_recall
