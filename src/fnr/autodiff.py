"""Dense tensors with taped reverse-mode differentiation on numpy arrays.

The op set is small: ``linear``, ``gather_rows`` and a fused ``softmax``
serve the model; ``add``, ``mul``, ``tanh`` and ``reduce_sum`` serve
only the tests, which build scalar losses for ``grad_check`` from them
and use them to exercise tape accumulation.  The model's larger layers
are fused ops of the same kind, each one tape node with a hand-written
backward (``lstm.blstm_forward``, ``attention.transform_bank``,
``attention.bank_attend_batch``, ``model.batch_loss``); they build on the
plain-array helpers here (``sigmoid_array``, ``scatter_add``,
``softmax_parts``, ``softmax_grad``).  Every op output is finite-checked
(NaN/Inf is a hard error).  Arrays are float64 by default; float32 exists
behind an explicit fast-mode switch and is not suitable for
finite-difference verification.

Ops record onto the innermost active ``Tape``.  With no tape active they
just compute, which is the cheap inference path.  The stack of active tapes
and the default dtype are context variables, so each thread (and each
asyncio task) has its own: a thread running inference never records onto
another thread's tape.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable

import numpy as np


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf, or a parameter update did."""


_DEFAULT_DTYPE: ContextVar[np.dtype] = ContextVar("fnr_default_dtype",
                                                  default=np.dtype(np.float64))
_ACTIVE_TAPES: ContextVar[tuple["Tape", ...]] = ContextVar("fnr_active_tapes", default=())


def default_dtype() -> np.dtype:
    return _DEFAULT_DTYPE.get()


def set_default_dtype(dtype) -> np.dtype:
    """Switch the current context's value dtype; float32 is the fast mode.
    Returns the old dtype."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    old = _DEFAULT_DTYPE.get()
    _DEFAULT_DTYPE.set(dt)
    return old


def check_finite(arr: np.ndarray, what: str = "tensor") -> None:
    """Raise NonFiniteError if ``arr`` holds NaN/Inf."""
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} holds non-finite values")


class Tensor:
    """A dense array treated as an immutable value inside the op graph.

    Parameter tensors are mutated in place only by the optimizer, between
    tapes.  ``const`` marks tensors (masks, literals) that never need
    gradients; backward rules skip them.
    """

    __slots__ = ("data", "const")

    def __init__(self, data, const: bool = False):
        arr = np.asarray(data, dtype=_DEFAULT_DTYPE.get())
        check_finite(arr)
        self.data = arr
        self.const = const

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
        flag = ", const" if self.const else ""
        return f"Tensor(shape={self.shape}{flag})"


def astensor(x) -> Tensor:
    """Wrap array-likes as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, const=True)


Backward = Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of executed primitives.

    Creation order is a topological order of the graph, so reversing the
    record visits nodes in exact reverse topological order during the
    backward pass.  Single-owner: one forward/backward sequence at a time.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Backward]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.set(_ACTIVE_TAPES.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb):
        tapes = _ACTIVE_TAPES.get()
        assert tapes[-1] is self, "tapes must unwind in LIFO order"
        _ACTIVE_TAPES.set(tapes[:-1])
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def gradients(self, output: Tensor, seed=None) -> "Gradients":
        """Reverse-accumulate d(output)/d(everything recorded on this tape).

        ``seed`` defaults to ones; for scalar losses this is the usual 1.0.
        Tensors never touched by ``output`` get zero gradients.
        """
        table: dict[int, list] = {}
        sd = np.ones_like(output.data) if seed is None else np.asarray(seed, dtype=output.data.dtype)
        if sd.shape != output.data.shape:
            raise ValueError(f"seed shape {sd.shape} != output shape {output.data.shape}")
        table[id(output)] = [output, sd]
        for out, inputs, backward in reversed(self._nodes):
            entry = table.get(id(out))
            if entry is None:
                continue
            grads = backward(entry[1])
            for inp, g in zip(inputs, grads):
                if g is None:
                    continue
                cur = table.get(id(inp))
                if cur is None:
                    table[id(inp)] = [inp, g]
                else:
                    cur[1] = cur[1] + g
        return Gradients(table)


class Gradients:
    """Read-only map from tensor identity to its accumulated gradient array."""

    def __init__(self, table: dict[int, list]):
        self._table = table

    def __getitem__(self, tensor: Tensor) -> np.ndarray:
        entry = self._table.get(id(tensor))
        if entry is None:
            return np.zeros_like(tensor.data)
        return entry[1]


def _tape() -> Tape | None:
    tapes = _ACTIVE_TAPES.get()
    return tapes[-1] if tapes else None


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    with np.errstate(over="ignore", invalid="ignore"):
        out = Tensor(a.data + b.data)
    tape = _tape()
    if tape is not None:
        def backward(g):
            return (None if a.const else _unbroadcast(g, a.data.shape),
                    None if b.const else _unbroadcast(g, b.data.shape))
        tape._nodes.append((out, (a, b), backward))
    return out


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    with np.errstate(over="ignore", invalid="ignore"):
        out = Tensor(a.data * b.data)
    tape = _tape()
    if tape is not None:
        def backward(g):
            return (None if a.const else _unbroadcast(g * b.data, a.data.shape),
                    None if b.const else _unbroadcast(g * a.data, b.data.shape))
        tape._nodes.append((out, (a, b), backward))
    return out


def tanh(a) -> Tensor:
    a = astensor(a)
    out = Tensor(np.tanh(a.data))
    tape = _tape()
    if tape is not None:
        od = out.data
        def backward(g):
            return (None if a.const else g * (1.0 - od * od),)
        tape._nodes.append((out, (a,), backward))
    return out


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only ever sees -|x|.

    Bit-identical to the piecewise 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) for x < 0, without a branch: with e = exp(-|x|) in
    [0, 1], max(e, x >= 0) is 1 for x >= 0 and e otherwise (NaN stays NaN).
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def linear(x, w, b=None) -> Tensor:
    """x @ w.T (+ b) over the last axis of x; leading axes are batch axes.

    Fused so one tape node covers the projection, which keeps step loops
    cheap.  ``w`` has shape (dout, din).
    """
    x, w = astensor(x), astensor(w)
    if x.ndim < 2:
        raise ValueError("linear expects x with ndim >= 2; reshape a vector to (1, d)")
    dout, din = w.data.shape
    if x.data.shape[-1] != din:
        raise ValueError(f"linear shape mismatch: x last dim {x.data.shape[-1]} != {din}")
    with np.errstate(over="ignore", invalid="ignore"):
        out_data = x.data @ w.data.T
        if b is not None:
            b = astensor(b)
            if b.data.shape != (dout,):
                raise ValueError(f"linear bias shape {b.data.shape} != ({dout},)")
            out_data = out_data + b.data
    out = Tensor(out_data)
    tape = _tape()
    if tape is not None:
        inputs = (x, w) if b is None else (x, w, b)
        def backward(g):
            g2 = g.reshape(-1, dout)
            gx = None if x.const else g @ w.data
            gw = None if w.const else g2.T @ x.data.reshape(-1, din)
            if b is None:
                return (gx, gw)
            gb = None if b.const else g2.sum(axis=0)
            return (gx, gw, gb)
        tape._nodes.append((out, inputs, backward))
    return out


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = astensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    tape = _tape()
    if tape is not None:
        shape = x.data.shape
        def backward(g):
            if x.const:
                return (None,)
            gk = g
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    gk = np.expand_dims(gk, ax)
            return (np.broadcast_to(gk, shape),)
        tape._nodes.append((out, (x,), backward))
    return out


def scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``table[rows] += values`` in place, a repeated row getting every
    update; ``values`` has shape ``rows.shape + (dim,)``.  This is
    ``np.add.at`` on the flat view of the C-contiguous 2-D table, which
    adds in the same order as on 2-D rows and runs several times faster."""
    if not table.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous table")
    dim = table.shape[1]
    flat = np.asarray(rows, dtype=np.intp)[..., None] * dim + np.arange(dim)
    np.add.at(table.reshape(-1), flat.ravel(), values.ravel())


def gather_rows(table, ids) -> Tensor:
    """Row lookup ``table[ids]``; backward scatter-adds into the picked rows
    only, which is what lets looked-up embeddings fine-tune."""
    table = astensor(table)
    idx = np.asarray(ids)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("gather_rows ids must be integers")
    rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"id out of range for table with {rows} rows")
    out = Tensor(table.data[idx])
    tape = _tape()
    if tape is not None:
        def backward(g):
            if table.const:
                return (None,)
            gt = np.zeros(table.data.shape, dtype=table.data.dtype)
            scatter_add(gt, idx, g)
            return (gt,)
        tape._nodes.append((out, (table,), backward))
    return out


def softmax_parts(x: np.ndarray, axis: int = -1,
                  valid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted softmax of a plain array along ``axis``, for fused ops.

    Returns ``(weights, e, z)`` with ``weights = e / z``; ``softmax_grad``
    takes ``e`` and ``z``.  With ``valid`` (booleans broadcastable to
    ``x``) only valid entries count: the rest get exactly zero weight, as
    if their score were -inf, the max of the valid scores is the shift, and
    a slice with no valid entry gets all-zero weights (0 / 1, not 0 / 0).
    """
    if valid is None:
        valid = np.ones(x.shape, dtype=bool)
    any_valid = valid.any(axis=axis, keepdims=True)
    top = np.where(valid, x, -np.inf).max(axis=axis, keepdims=True, initial=-np.inf)
    e = np.exp(np.where(valid, x - np.where(any_valid, top, 0.0), -np.inf))
    z = e.sum(axis=axis, keepdims=True) + ~any_valid
    return e / z, e, z


def softmax_grad(g: np.ndarray, e: np.ndarray, z: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of ``e / z`` (from ``softmax_parts``) back to the scores.

    The arithmetic and summation order are those of the composite
    exp -> sum -> divide chain, so fused ops reproduce its gradients bit
    for bit; the textbook ``w * (g - sum(g * w))`` differs in the last ulp.
    """
    gz = _unbroadcast(-g * e / (z * z), z.shape)
    return (g / z + gz) * e


def softmax(x, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis`` as one node."""
    x = astensor(x)
    weights, e, z = softmax_parts(x.data, axis)
    out = Tensor(weights)
    tape = _tape()
    if tape is not None:
        def backward(g):
            return (None if x.const else softmax_grad(g, e, z, axis),)
        tape._nodes.append((out, (x,), backward))
    return out
