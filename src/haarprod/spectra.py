"""Eigenvalues of product matrices and pooled spectral samples."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

# eigenvalues of a contraction may poke above 1 by roundoff; anything
# larger than this is treated as a real failure, not noise
RADIUS_SLACK = 1e-8


class EigensolverError(RuntimeError):
    """Dense eigenvalue iteration failed to converge."""


class RadiusOverflowError(RuntimeError):
    """An eigenvalue radius exceeded 1 by more than the roundoff slack."""


@dataclass(frozen=True)
class EigenSample:
    """Pooled eigenvalues of independent product-chain draws.

    radii are |lambda| clipped to 1 when roundoff pushes them above by at
    most RADIUS_SLACK; angles lie in [0, 2*pi), with eigenvalues at the
    origin assigned angle 0 and counted in origin_count.
    """

    eigenvalues: np.ndarray

    @cached_property
    def radii(self) -> np.ndarray:
        return np.minimum(np.abs(self.eigenvalues), 1.0)

    @cached_property
    def angles(self) -> np.ndarray:
        angles = np.mod(np.angle(self.eigenvalues), 2 * np.pi)
        angles[self.eigenvalues == 0] = 0.0
        return angles

    @cached_property
    def origin_count(self) -> int:
        return int(np.sum(self.eigenvalues == 0))


def eigenvalues(b: np.ndarray, context: str = "") -> np.ndarray:
    """All eigenvalues (with multiplicity) of a square complex matrix."""
    m, mm = b.shape
    if m != mm:
        raise ValueError(f"matrix must be square, got {m}x{mm}")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix has non-finite entries")
    try:
        return scipy.linalg.eigvals(b, check_finite=False)  # checked just above
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolverError(f"eigenvalue iteration failed ({context})") from exc


def check_radii(eigs: np.ndarray, context: str) -> None:
    """Reject a radius above 1 by more than the roundoff slack, naming `context`."""
    radius = np.abs(eigs).max()
    if radius > 1.0 + RADIUS_SLACK:
        raise RadiusOverflowError(
            f"eigenvalue radius {radius:.3e} exceeds 1 beyond "
            f"roundoff slack ({context})"
        )
