"""Reference implementations that the vectorised library paths are tested against."""

from __future__ import annotations

import numpy as np


def argpartition_subset_masks(size: int, active: int, num: int, rng: np.random.Generator) -> np.ndarray:
    """Subset masks by index selection: each row sets True at the indices of
    its `active` smallest of size uniform scores (argpartition, then
    put_along_axis). It reads rng exactly as asm_baseline.random_subset_masks
    does and always keeps exactly `active` entries per row, where the
    threshold sampler would keep one more on a tie at the threshold."""
    scores = rng.random((num, size))
    keep = np.argpartition(scores, active - 1, axis=1)[:, :active]
    masks = np.zeros((num, size), dtype=bool)
    np.put_along_axis(masks, keep, True, axis=1)
    return masks
