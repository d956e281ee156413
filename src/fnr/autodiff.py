"""Dense tensors with taped reverse-mode differentiation on numpy arrays.

The op set is what the model records.  ``gather_rows`` and ``linear``
live here; the larger layers are fused ops of the same kind, each one
tape node with a hand-written backward (``lstm.blstm_forward``,
``attention.transform_bank``, ``attention.bank_attend_batch``,
``model.batch_loss``), built on the plain-array helpers here
(``sigmoid_array``, ``scatter_add``, ``softmax``, ``softmax_grad``).
Each op takes ``Tensor`` inputs and hands its output, inputs and backward
to ``record``, the one function that writes tape nodes; the backward
returns one gradient array per input, in input order.  Tests check each op through a vector-Jacobian
product, ``optim.grad_check`` with a chosen cotangent.
Every op output is finite-checked (NaN/Inf is a hard error).  Ops compute
in their inputs' dtype, so the parameters' dtype (``optim.ParamGroup``,
float64 by default) is the model's.  A ``Tensor`` keeps a float32 or
float64 array's dtype and turns anything else into float64.  Float32 is
not suitable for finite-difference verification.

A tape is differentiated once.  ``Tape.gradients`` pops the nodes last
first and frees each node's backward closure, with the forward buffers it
saved, as soon as that backward has run; an intermediate's gradient is
dropped once read.  The ``Gradients`` it returns hold leaf tensors only
(tensors no recorded op produced, such as parameters), so holding them
keeps nothing of the step's graph alive.

Ops record onto the active ``Tape``; at most one is active at a time, and
entering a second raises ``RuntimeError``.  With no tape active they just
compute, which is the cheap inference path.  The active tape is a context
variable, so each thread (and each asyncio task) has its own: a thread
running inference never records onto another thread's tape.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable

import numpy as np


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf, or a parameter update did."""


FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

_ACTIVE_TAPE: ContextVar["Tape | None"] = ContextVar("fnr_active_tape", default=None)


def check_finite(arr: np.ndarray, what: str = "tensor") -> None:
    """Raise NonFiniteError if ``arr`` holds NaN/Inf."""
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} holds non-finite values")


class Tensor:
    """A dense array treated as an immutable value inside the op graph.

    A parameter tensor's data is read-only; only its ``optim.ParamGroup``
    writes it, through a view of its own, between tapes.  Backward closures read
    their inputs' data, so an input must not be mutated until its tape is
    differentiated.  Every tensor an op records as an input gets a
    gradient from that op's backward.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        check_finite(arr)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


Backward = Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of executed primitives, differentiated once.

    Creation order is a topological order of the graph, so reversing the
    record visits nodes in exact reverse topological order during the
    backward pass.  Single-owner: one forward/backward sequence at a time.
    ``gradients`` uses the record up: each node, with the forward buffers
    its backward closure saved, is freed as soon as its backward has run,
    and a second call raises ``RuntimeError``.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Backward]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        if _ACTIVE_TAPE.get() is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if _ACTIVE_TAPE.get() is not self:
            raise RuntimeError("exiting a tape that is not the active one")
        _ACTIVE_TAPE.set(None)
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def gradients(self, output: Tensor, seed=None) -> "Gradients":
        """Reverse-accumulate d(output)/d(every leaf tensor on this tape).

        ``seed`` defaults to ones; for scalar losses this is the usual 1.0.
        An intermediate's gradient is dropped once its node's backward has
        read it; tensors never touched by ``output`` get zero gradients.
        A backward that returns other than one gradient per input raises
        ``ValueError``.
        """
        if self._spent:
            raise RuntimeError("tape already differentiated; record a new one")
        sd = np.ones_like(output.data) if seed is None else np.asarray(seed, dtype=output.data.dtype)
        if sd.shape != output.data.shape:
            raise ValueError(f"seed shape {sd.shape} != output shape {output.data.shape}")
        self._spent = True
        grads = Gradients({output: sd})
        while self._nodes:
            out, inputs, backward = self._nodes.pop()
            g_out = grads.pop(out, None)
            if g_out is None:
                continue
            for inp, g in zip(inputs, backward(g_out), strict=True):
                cur = grads.get(inp)
                grads[inp] = g if cur is None else cur + g
        return grads


class Gradients(dict):
    """Map from tensor to its accumulated gradient array, keyed by the
    tensor object itself (``Tensor`` hashes by identity).  A tensor with
    no entry reads as zeros.  It keeps the leaves it maps alive, but
    nothing of the graph."""

    def __missing__(self, tensor: Tensor) -> np.ndarray:
        return np.zeros_like(tensor.data)


def _tape() -> Tape | None:
    return _ACTIVE_TAPE.get()


def record(out: Tensor, inputs: tuple[Tensor, ...], backward: Backward) -> Tensor:
    """Record an op onto the active tape, if there is one, and return its
    output.  ``backward`` maps the output's gradient to one gradient array
    per input, in input order."""
    tape = _tape()
    if tape is not None:
        tape._nodes.append((out, inputs, backward))
    return out


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only ever sees -|x|.

    Bit-identical to the piecewise 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) for x < 0, without a branch: with e = exp(-|x|) in
    [0, 1], max(e, x >= 0) is 1 for x >= 0 and e otherwise (NaN stays NaN).
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for packed (n, din) rows x: (n, dout).

    One tape node covers the projection.  ``w`` has shape (dout, din) and
    ``b`` shape (dout,).
    """
    if x.ndim != 2:
        raise ValueError(f"linear expects packed (n, din) rows, got shape {x.data.shape}")
    dout, din = w.data.shape
    if x.data.shape[1] != din:
        raise ValueError(f"linear shape mismatch: x last dim {x.data.shape[1]} != {din}")
    if b.data.shape != (dout,):
        raise ValueError(f"linear bias shape {b.data.shape} != ({dout},)")
    with np.errstate(over="ignore", invalid="ignore"):
        out = Tensor(x.data @ w.data.T + b.data)
    return record(out, (x, w, b), lambda g: (g @ w.data, g.T @ x.data, g.sum(axis=0)))


_SCATTER_BLOCK = 1024


def scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``table[rows] += values`` in place, a repeated row getting every
    update; ``values`` has shape ``rows.shape + (dim,)``.  This is
    ``np.add.at`` on the flat view of the C-contiguous 2-D table, which
    adds in the same order as on 2-D rows and runs several times faster.
    It runs over blocks of ``_SCATTER_BLOCK`` ids in order, so its flat
    index takes that many rows of ``dim`` entries, not one per id."""
    if not table.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous table")
    rows = np.asarray(rows, dtype=np.intp)
    dim = table.shape[1]
    if values.shape != rows.shape + (dim,):
        raise ValueError(f"values shape {values.shape} != {rows.shape + (dim,)}")
    rows, values, cols = rows.reshape(-1), values.reshape(-1, dim), np.arange(dim)
    for lo in range(0, rows.size, _SCATTER_BLOCK):
        flat = rows[lo:lo + _SCATTER_BLOCK, None] * dim + cols
        np.add.at(table.reshape(-1), flat.ravel(), values[lo:lo + _SCATTER_BLOCK].ravel())


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup ``table[ids]``; backward scatter-adds into the picked rows
    only, which is what lets looked-up embeddings fine-tune."""
    idx = np.asarray(ids)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("gather_rows ids must be integers")
    rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"id out of range for table with {rows} rows")

    def backward(g):
        gt = np.zeros(table.data.shape, dtype=table.data.dtype)
        scatter_add(gt, idx, g)
        return (gt,)
    return record(Tensor(table.data[idx]), (table,), backward)


def softmax(x: np.ndarray, axis: int = -1, valid: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax weights of a plain array along ``axis``.

    With ``valid`` (booleans broadcastable to ``x``) only valid entries
    count: the rest get exactly zero weight, as if their score were -inf,
    the max of the valid scores is the shift, and a slice with no valid
    entry gets all-zero weights (0 / 1, not 0 / 0).  A slice counts as
    valid when its masked max is above -inf, which is exact for finite
    scores; a non-finite valid score can leave NaN in the weights.
    """
    masked = x if valid is None else np.where(valid, x, -np.inf)
    top = masked.max(axis=axis, keepdims=True, initial=-np.inf)
    any_valid = top > -np.inf
    e = np.exp(masked - np.where(any_valid, top, 0.0))
    return e / (e.sum(axis=axis, keepdims=True) + ~any_valid)


def softmax_grad(g: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """Gradient ``w * (g - sum(g * w))`` back to the scores of the softmax
    weights ``w`` along ``axis``, from the weights' gradient ``g``; a slice
    with no valid entry, all-zero weights, gets exactly zero."""
    return w * (g - (g * w).sum(axis=axis, keepdims=True))
