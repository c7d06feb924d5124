"""Orthorhombic periodic simulation cell."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Box:
    """An orthorhombic cell with periodic boundaries in all three directions.

    ``lengths`` are the edge lengths (Å).  The cell origin is at 0, so
    fractional coordinates live in [0, 1).
    """

    lengths: np.ndarray

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.float64).reshape(3).copy()
        if np.any(self.lengths <= 0):
            raise ValueError(f"box lengths must be positive, got {self.lengths}")

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into the primary cell [0, L)."""
        wrapped = np.mod(positions, self.lengths)
        # np.mod can return exactly L for tiny negative inputs; fold to 0 so
        # wrapping is idempotent and cell assignment stays in range.
        return np.where(wrapped >= self.lengths, 0.0, wrapped)

    def minimum_image(self, disp: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors.

        Valid when the relevant interaction cutoff is at most half the
        shortest box edge; neighbor-list construction enforces that.
        """
        return disp - self.lengths * np.round(disp / self.lengths)

    def fold_minimum_image(self, disp: np.ndarray) -> None:
        """:meth:`minimum_image` in place on a float64 (..., 3) array, one
        component at a time — the per-step form for large arrays: the same
        arithmetic per element (results are bitwise equal), but no
        temporaries the size of ``disp`` and every loop as long as the
        array instead of 3 long."""
        tmp = np.empty(disp.shape[:-1])
        for c, length in enumerate(self.lengths):
            col = disp[..., c]
            np.divide(col, length, out=tmp)
            np.round(tmp, out=tmp)
            np.multiply(length, tmp, out=tmp)
            np.subtract(col, tmp, out=col)

    def displacement(self, pos_i: np.ndarray, pos_j: np.ndarray) -> np.ndarray:
        """Minimum-image displacement(s) ``pos_j - pos_i``."""
        return self.minimum_image(np.asarray(pos_j) - np.asarray(pos_i))

    def check_cutoff(self, cutoff: float) -> None:
        if cutoff * 2.0 > self.lengths.min() + 1e-9:
            raise ValueError(
                f"cutoff {cutoff} Å needs box edges >= {2 * cutoff} Å for the "
                f"minimum-image convention; box is {self.lengths}"
            )

    def scaled(self, factors) -> "Box":
        """Return a new box with edge lengths multiplied by ``factors``."""
        return Box(self.lengths * np.asarray(factors, dtype=np.float64))

    def copy(self) -> "Box":
        return Box(self.lengths.copy())
