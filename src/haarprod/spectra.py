"""Eigenvalues of product matrices; a pooled spectrum is the plain array of them."""

from __future__ import annotations

import numpy as np
import scipy.linalg

# eigenvalues of a contraction may poke above 1 by roundoff; anything
# larger than this is treated as a real failure, not noise
RADIUS_SLACK = 1e-8


class EigensolverError(RuntimeError):
    """Dense eigenvalue iteration failed to converge."""


class RadiusOverflowError(RuntimeError):
    """An eigenvalue radius exceeded 1 by more than the roundoff slack."""


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


def polar(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radii |lambda| clipped to 1, and angles in [0, 2*pi) that are 0 at the origin."""
    angles = np.mod(np.angle(eigs), 2 * np.pi)
    angles[eigs == 0] = 0.0
    return np.minimum(np.abs(eigs), 1.0), angles
