"""Eigenvalues of product matrices and pooled spectral samples."""

from __future__ import annotations

from dataclasses import dataclass

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
    radii: np.ndarray
    angles: np.ndarray
    origin_count: int

    @classmethod
    def pool(cls, spectra):
        """Concatenate per-trial (eigenvalues, radii, angles, origin_count)."""
        eigs, radii, angles, origins = zip(*spectra)
        return cls(np.concatenate(eigs), np.concatenate(radii), np.concatenate(angles),
                   sum(origins))


def eigenvalues(b: np.ndarray, context: str = "") -> np.ndarray:
    """All eigenvalues (with multiplicity) of a square complex matrix."""
    m, mm = b.shape
    if m != mm:
        raise ValueError(f"matrix must be square, got {m}x{mm}")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix has non-finite entries")
    try:
        return scipy.linalg.eigvals(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolverError(f"eigenvalue iteration failed ({context})") from exc


def radii_angles(eigs: np.ndarray, context: str):
    """Radii (roundoff above 1 clipped), angles in [0, 2*pi) and origin count."""
    radii = np.abs(eigs)
    over = radii > 1.0 + RADIUS_SLACK
    if np.any(over):
        raise RadiusOverflowError(
            f"eigenvalue radius {radii[over].max():.3e} exceeds 1 beyond "
            f"roundoff slack ({context})"
        )
    radii = np.minimum(radii, 1.0)
    at_origin = eigs == 0
    angles = np.mod(np.angle(eigs), 2 * np.pi)
    angles[at_origin] = 0.0
    return radii, angles, int(at_origin.sum())
