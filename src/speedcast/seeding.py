"""Single master seed, keyed-hash derived sub-seeds everywhere else."""
from __future__ import annotations

import hashlib


def derive_seed(master: int, *key: object) -> int:
    """Deterministic 63-bit sub-seed from a master seed and a string-able key."""
    tag = ":".join([str(master), *[str(k) for k in key]])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def split_seed(seed: int) -> int:
    """The train/val/test split seed of a trained run (prepare, or an ablate cell) with run seed `seed`."""
    return derive_seed(seed, "split")


def order_seed(seed: int, variant: str) -> int:
    """The batch-order seed (`TrainConfig.seed`) of a run of canonical `variant` with run seed `seed`."""
    return derive_seed(seed, "train", variant)
