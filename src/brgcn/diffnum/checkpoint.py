"""Parameter checkpoints: a versioned key -> float64 array map.

Format (version 1): a numpy ``.npz`` archive.  Every user key maps to one
float64 array; the reserved key ``__format_version__`` stores the format
number.  Arrays are written in native binary, so save/load round-trips are
bit-exact.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

FORMAT_VERSION = 1

_VERSION_KEY = "__format_version__"


class CheckpointError(Exception):
    pass


def save_checkpoint(path, arrays: Mapping[str, np.ndarray]) -> None:
    for key in arrays:
        if key.startswith("__"):
            raise CheckpointError(f"key {key!r} is reserved (double underscore prefix)")
    payload = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    payload[_VERSION_KEY] = np.array(FORMAT_VERSION)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The arrays saved at ``path``; ``CheckpointError`` naming it if it holds no checkpoint."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    if not zipfile.is_zipfile(path):
        raise CheckpointError(f"{path} is not a recognized checkpoint (not an .npz archive)")
    try:
        with np.load(path) as npz:
            if _VERSION_KEY not in npz:
                raise CheckpointError(f"{path} is not a recognized checkpoint (missing version)")
            version = int(npz[_VERSION_KEY])
            if version != FORMAT_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            return {k: npz[k] for k in npz.files if k != _VERSION_KEY}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as err:
        raise CheckpointError(f"{path} is not a recognized checkpoint ({err})") from None
