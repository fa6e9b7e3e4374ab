"""Model checkpoints: a ``formats`` container under "MSCK", one array per
state entry, named by its state key."""

from __future__ import annotations

from contextlib import contextmanager

from .formats import Reader, save_arrays
from .layers import StateDictError

MAGIC = b"MSCK"


def save_checkpoint(path, tensors: dict):
    """Write named arrays in insertion order; order is part of the bytes."""
    save_arrays(path, MAGIC, tensors)


def load_checkpoint(path) -> dict:
    return Reader(path).arrays(MAGIC, None)


@contextmanager
def named(path):
    """Prefix a ``StateDictError`` raised inside with ``path``, the
    checkpoint whose state does not fit."""
    try:
        yield
    except StateDictError as exc:
        raise StateDictError(f"{path}: {exc}") from None


def load_into(module, path):
    """Load the checkpoint at ``path`` into ``module``. A state that does
    not fit the module raises ``StateDictError`` naming ``path`` and the
    first key at fault."""
    with named(path):
        module.load_state_dict(load_checkpoint(path))
