"""Benchmark harness for fnr.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the repository checkout it
sits in, importing ``fnr`` from ``src/`` of that checkout.  Set-up runs
``SETUP_REPEATS`` times and is reported as the median.  The measured loop
is a closed loop of ops for ``--seconds``.  With ``--trace 0`` the last
line of stdout is a JSON object carrying the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and it carries
the per-layer metrics and the tracing overhead; the traced spans are
written to ``.bench_spans/<workload>-seed<n>.jsonl``.  Lines before it are a
human-readable report: environment, input properties, every metric with
its unit.  Exit status is 1 when an output check fails, 2 when the
program cannot be found.

``--tiny`` runs at smoke-test sizes; ``--write-manifest`` writes
BENCHMARK.json at the checkout root from the definitions below.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_spans"
SETUP_REPEATS = 3
RUN_SECONDS = 20

WORKLOAD_WHY = {
    "train": "SAN training steps at paper dims, B=64, 18 categories: the only "
             "workload running tape recording, backward and Adam",
    "tag": "eval-mode tagging of two categories' pool questions in pool order: "
           "the forward layers without a tape, banks sharing many questions",
    "prepare": "build-bank over 2x20k-question pools, then skip-gram pretraining: "
               "the only workload using retrieval and embeddings, no autodiff",
}
# Ops a run makes even past --seconds: train steps, tag batches, prepare
# passes.
MIN_OPS = {"train": 4, "tag": 4, "prepare": 2}

# (name, unit, better, bound).  Throughput and set-up time move with the
# speed phases of a shared machine, hence the largest bound (README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("items_per_s", "1/s", "higher", 0.25),
]
TIMED_LAYERS = [
    "data.collate", "model.embed", "lstm.blstm1", "lstm.bank", "lstm.blstm2",
    "attention.bank_attend", "model.head", "model.loss", "autodiff.backward",
    "optim.adam", "data.make_example", "model.decode", "metrics.score",
    "data.load_corpus", "retrieval.index", "retrieval.query", "retrieval.cache_write",
    "embeddings.skipgram", "embeddings.save",
]
# (name, unit, better)
COUNTED = [
    ("autodiff.tape_nodes", "count", "lower"),
    ("lstm.bank_rows", "count", "lower"),
    ("lstm.bank_distinct_ratio", "ratio", "higher"),
    ("lstm.bank_distinct_ratio_run", "ratio", "higher"),
    ("lstm.valid_token_ratio", "ratio", "higher"),
    ("retrieval.docs_scored", "count", "lower"),
    ("retrieval.match_ratio", "ratio", "higher"),
    ("embeddings.pairs", "count", "higher"),
    ("training.loss_end", "nats", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]
PER_LAYER = ([(f"{n}_s", "s", "lower") for n in TIMED_LAYERS]
             + [(f"{n}_calls", "count", "lower") for n in TIMED_LAYERS] + COUNTED)


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _blas_threads_in_use():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads_in_use(), "blas_threads_cap": nproc,
            "nproc": nproc, "seed": seed}


def layer_metrics(tr, ops: int, overhead: float) -> dict:
    """Self time and calls per op for each traced layer, plus the counts."""
    selfs = tr.self_times()
    out = {}
    for name in TIMED_LAYERS:
        seconds, calls = selfs.get(name, (0.0, 0))
        out[f"{name}_s"] = seconds / ops
        out[f"{name}_calls"] = calls / ops
    c = tr.counts

    def mean(key):
        return statistics.fmean(c[key]) if c.get(key) else 0.0

    for key in ("autodiff.tape_nodes", "lstm.bank_rows", "lstm.bank_distinct_ratio",
                "lstm.valid_token_ratio", "retrieval.docs_scored", "embeddings.pairs",
                "training.loss_end"):
        out[key] = mean(key)
    out["lstm.bank_distinct_ratio_run"] = (c["lstm.bank_distinct_run"][-1] / sum(c["lstm.bank_rows"])
                                           if c.get("lstm.bank_rows") else 0.0)
    out["retrieval.match_ratio"] = (sum(c["retrieval.matched"]) / sum(c["retrieval.docs_scored"])
                                    if c.get("retrieval.docs_scored") else 0.0)
    out["trace.overhead_share"] = overhead
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json at the checkout root and exit")
    args = p.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        p.error("--workload is required")
    return args


def run(args, nproc: int) -> int:
    import workloads
    from spans import Tracer

    env = environment(args.seed, nproc)
    cls, sizes_cls = workloads.WORKLOADS[args.workload]
    sizes = sizes_cls()
    if args.tiny:
        sizes = replace(sizes, **workloads.TINY[args.workload])
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cls(args.seed, sizes, str(workdir))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        min_ops = MIN_OPS[args.workload]
        if args.trace:
            half = max(1, min_ops // 2)
            plain = wl.loop(None, args.seconds / 2, half)
            tr = Tracer()
            with tr.patched(wl.patches(tr)):
                traced = wl.loop(tr, args.seconds / 2, half)
            SPANS_DIR.mkdir(exist_ok=True)
            tr.write(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")
            runs = [plain, traced]
        else:
            runs = [wl.loop(None, args.seconds, min_ops)]
        completed = all(r.times for r in runs)
        errors = wl.check() if completed else ["no op completed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if not completed:
        metrics = {}
    elif args.trace:
        overhead = 1.0 - traced.rate() / plain.rate()
        units = {n: u for n, u, _ in PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in layer_metrics(tr, len(traced.times), overhead).items()}
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "items_per_s": runs[0].rate()}
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}

    print(f"workload: {args.workload} ({wl.op_name} ops, {wl.item_name} per second)")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("input: " + json.dumps(wl.props, sort_keys=True))
    print(f"setup runs (s): {[round(t, 4) for t in setup_times]}")
    print(f"ops: attempted {attempted}, failed {failed}, "
          f"failed_share {failed / max(attempted, 1):.4f}")
    for label, r in zip(("untraced", "traced"), runs):
        print(f"{label} op seconds ({len(r.times)}): {[round(t, 4) for t in r.times]}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    nproc = _cap_blas_threads()
    if not (SRC / "fnr" / "__init__.py").is_file():
        print(f"fnr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fnr
    if Path(fnr.__file__).resolve().parent != SRC / "fnr":
        print(f"imported fnr from {fnr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
