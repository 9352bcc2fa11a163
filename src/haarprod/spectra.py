"""Eigenvalues of product matrices; a pooled spectrum is the plain array of them.

scipy rejects a malformed matrix (ValueError); its LinAlgError and this module's
NumericalError get their seed and trial in `pipeline.trial_spectrum`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# eigenvalues of a contraction may poke above 1 by roundoff; anything
# larger than this is treated as a real failure, not noise
RADIUS_SLACK = 1e-8


class NumericalError(RuntimeError):
    """A trial's numerics failed: the eigen-solver, the SVD, or a radius past the unit disk."""


def eigenvalues(b: np.ndarray) -> np.ndarray:
    """All eigenvalues (with multiplicity); scipy rejects a non-square or non-finite b."""
    return scipy.linalg.eigvals(b)


def check_radii(eigs: np.ndarray) -> None:
    """Reject a radius above 1 by more than the roundoff slack."""
    radius = np.abs(eigs).max()
    if radius > 1.0 + RADIUS_SLACK:
        raise NumericalError(
            f"eigenvalue radius {radius:.3e} exceeds 1 beyond roundoff slack")


def polar(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radii |lambda| clipped to 1, and angles in [0, 2*pi) that are 0 at the origin."""
    angles = np.mod(np.angle(eigs), 2 * np.pi)
    angles[eigs == 0] = 0.0
    return np.minimum(np.abs(eigs), 1.0), angles
