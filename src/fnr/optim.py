"""Parameter storage, the Adam update, and finite-difference verification.

Adam's decay rates and epsilon are the values Kingma & Ba 2015 (*Adam: A
Method for Stochastic Optimization*, arXiv 1412.6980) suggest, as module
constants; the learning rate is the caller's (``TrainConfig.lr``).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .autodiff import FLOAT_DTYPES, Gradients, NonFiniteError, Tape, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class ParamGroup:
    """Named trainable tensors plus their per-tensor Adam moments.

    The group is the only writer of its values.  ``add`` takes over the
    array it is given, uncopied: it keeps a writable view, marks the
    array itself read-only, so the caller can no longer write it, and
    hands it out as a ``Tensor``.  ``assign`` writes one tensor and adds
    one to its count in ``writes``; ``adam_step`` and ``load_values``
    write them all and add one to every count.  A value computed from
    some parameters is current while their counts are unchanged.

    The step count is shared by the whole group.  First/second moments
    match their parameter's shape and are allocated by the group's first
    Adam step, so a group that never steps (evaluation, extraction) holds
    none.  The group's ``dtype``, float32 or float64, is the dtype of
    every tensor it stores, and so of everything computed from them.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype not in FLOAT_DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype}; use float32 or float64")
        self._params: dict[str, Tensor] = {}
        self._data: dict[str, np.ndarray] = {}   # the writable arrays
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0
        self.writes: dict[str, int] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.asarray(data, dtype=self.dtype)
        self._data[name] = arr.view()   # taken while arr is still writable
        arr.flags.writeable = False
        self._params[name] = t = Tensor(arr)
        self.writes[name] = 0
        return t

    def assign(self, name: str, index, values) -> None:
        """Write ``values`` into parameter ``name`` at ``index``."""
        self.writes[name] += 1
        self._data[name][index] = values

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Copy ``values`` into the parameters of the same names.  The
        table must hold exactly the group's names, each with its
        parameter's shape; otherwise ``ValueError`` names the first
        offending tensor and nothing is copied."""
        missing = sorted(set(self._params) - set(values))
        if missing:
            raise ValueError(f"missing tensor {missing[0]!r}")
        extra = sorted(set(values) - set(self._params))
        if extra:
            raise ValueError(f"unexpected tensor {extra[0]!r}")
        for name, t in self._params.items():
            shape = values[name].shape
            if shape != t.shape:
                raise ValueError(f"tensor {name!r} has shape {list(shape)}, "
                                 f"expected {list(t.shape)}")
        self.writes = {name: n + 1 for name, n in self.writes.items()}
        for name, arr in self._data.items():
            arr[...] = values[name]


def check_lr(lr: float) -> None:
    """The learning-rate rule of every trainer: finite and positive."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be positive and finite, got {lr}")


def adam_step(params: ParamGroup, grads: Gradients, lr: float) -> ParamGroup:
    """One in-place Adam update with bias correction, at ``BETA1``, ``BETA2``
    and ``EPS``.  Parameters with zero gradient are a fixed point.  The
    first step allocates the moments, at zero."""
    check_lr(lr)
    if not params.step_count:
        params._m = {name: np.zeros_like(w) for name, w in params._data.items()}
        params._v = {name: np.zeros_like(w) for name, w in params._data.items()}
    params.step_count += 1
    params.writes = {name: n + 1 for name, n in params.writes.items()}
    t = params.step_count
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, w in params._data.items():
        g = grads[params[name]]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name!r} shape {w.shape}")
        m = params._m[name]
        v = params._v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        w -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        if not np.all(np.isfinite(w)):
            raise NonFiniteError(f"parameter {name!r} became non-finite during the update")
    return params


def grad_check(loss_fn: Callable[[ParamGroup], Tensor], params: ParamGroup,
               h: float = 1e-5, max_coords_per_tensor: int | None = None, seed=None) -> float:
    """Compare taped gradients of ``loss_fn`` against central differences.

    Without ``seed`` the output must be a scalar loss.  ``seed`` is a
    cotangent of the output's shape, as ``Tape.gradients`` takes it: the
    taped side is then the vector-Jacobian product ``seed . J`` and the
    differenced side ``sum(seed * out)``, so a fused op is checked on its
    own output.  Returns the max relative error
    |g_ad - g_fd| / max(s, |g_ad|, |g_fd|) over all checked coordinates;
    s, the group's largest |g_ad| clipped to [1e-2, 1], keeps the error
    relative when every gradient is small.
    For large tensors a subset drawn from ``np.random.default_rng(0)`` may
    be checked (``max_coords_per_tensor``).  The group must be float64; the
    comparison is meaningless at float32.  A non-finite loss or taped
    gradient raises ``NonFiniteError``.
    """
    if params.dtype != np.float64:
        raise RuntimeError(f"grad_check requires a float64 group, not {params.dtype}")
    with Tape() as tape:
        out = loss_fn(params)
    if seed is None and out.size != 1:
        raise ValueError("loss_fn must return a scalar when no seed is given")
    grads = tape.gradients(out, seed=seed)
    weights = 1.0 if seed is None else np.asarray(seed, dtype=out.data.dtype)

    def value(t: Tensor) -> float:
        return float((t.data * weights).sum())

    if not math.isfinite(value(out)):
        raise NonFiniteError("loss is non-finite at the evaluation point")
    for name, p in params.items():
        if not np.all(np.isfinite(grads[p])):
            raise NonFiniteError(f"taped gradient of {name!r} is non-finite")

    largest = max((np.abs(grads[p]).max(initial=0.0) for _, p in params.items()), default=0.0)
    scale = min(1.0, max(1e-2, float(largest)))
    worst = 0.0
    picker = np.random.default_rng(0)
    for name, p in params.items():
        gflat = grads[p].reshape(-1)
        n = p.size
        if max_coords_per_tensor is not None and n > max_coords_per_tensor:
            coords = picker.choice(n, size=max_coords_per_tensor, replace=False)
        else:
            coords = range(n)
        for i in coords:
            where = np.unravel_index(i, p.shape)
            orig = p.data[where]
            params.assign(name, where, orig + h)
            lp = value(loss_fn(params))
            params.assign(name, where, orig - h)
            lm = value(loss_fn(params))
            params.assign(name, where, orig)
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise NonFiniteError(f"loss non-finite while perturbing {name!r}")
            fd = (lp - lm) / (2.0 * h)
            ad = float(gflat[i])
            err = abs(ad - fd) / max(scale, abs(ad), abs(fd))
            if err > worst:
                worst = err
    return worst
