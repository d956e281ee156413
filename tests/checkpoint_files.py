"""Read and rewrite format-3 checkpoints (an ``.npz`` of tensors plus a
``__meta__`` entry of UTF-8 JSON), so tests can damage one on purpose."""

import json

import numpy as np


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The decoded meta JSON and the name -> array table of a checkpoint."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    return json.loads(arrays.pop("__meta__").tobytes().decode("utf-8")), arrays


def write_checkpoint(path, meta, arrays: dict[str, np.ndarray]) -> None:
    """Save ``meta`` (any JSON value, or None for no meta entry) and
    ``arrays`` as a checkpoint container at exactly ``path``."""
    entries = dict(arrays)
    if meta is not None:
        entries["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def rewrite_checkpoint(src, dst, edit) -> None:
    """Copy checkpoint ``src`` to ``dst`` through ``edit(meta, arrays)``,
    which may change ``arrays`` in place and returns the meta to write."""
    meta, arrays = read_checkpoint(src)
    write_checkpoint(dst, edit(meta, arrays), arrays)
