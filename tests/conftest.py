import gc
import tracemalloc

import pytest
from hypothesis import settings

from fnr import autodiff
from fnr.data import QaRecord, make_example
from fnr.model import SanConfig
from fnr.vocab import RESERVED, Vocabulary

# Property tests draw the same examples on every run: a failure they find
# is found again by the next run, not lost to a fresh random seed.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[{name}] {report.outcome.upper()}")


@pytest.fixture(autouse=True)
def no_leaked_autodiff_state():
    """Fail a test that ends with a tape still active, then clear the
    slot for the next test.  A leaked tape would silently turn off the
    eval bank memo and make the next test's tape refuse to enter."""
    yield
    tape = autodiff._ACTIVE_TAPE.get()
    autodiff._ACTIVE_TAPE.set(None)
    if tape is not None:
        pytest.fail("test left a tape active")


@pytest.fixture(autouse=True)
def no_paused_collector():
    """Fail a test that ends with the cyclic garbage collector disabled,
    then re-enable it: a pause leaked by ``load_corpus`` would otherwise
    run every later test without the collector and go unnoticed."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("test left the cyclic garbage collector disabled")


@pytest.fixture
def traced():
    """``traced(fn)`` runs ``fn()`` under tracemalloc and returns its
    result, the bytes it left allocated and its peak bytes, both counted
    from the call's start."""
    def run(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, live - start, peak - start
    return run


@pytest.fixture
def tiny_vocab():
    tokens = ["works", "with", "iphone", "?", "good", "it", "does", "video", "calls"]
    return Vocabulary(list(RESERVED) + tokens)


@pytest.fixture
def tiny_cfg():
    # The verification-scale configuration: T=6, U=2, H=4, A=4, d_e=4.
    return SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                     bank_size=2, dropout=0.0, variant="san", seed=1)


@pytest.fixture
def fig_example(tiny_vocab):
    rec = QaRecord("p1", "laptop", ["Works", "with", "iphone", "?"],
                   tags=["F", "F", "F", "O"])
    bank = [QaRecord("p2", "laptop", ["does", "it", "video", "calls", "?"]),
            QaRecord("p3", "laptop", ["good", "with", "iphone"])]
    return make_example(rec, bank, tiny_vocab, max_len=6, bank_size=2)
