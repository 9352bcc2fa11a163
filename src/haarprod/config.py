"""The one record of a truncated-product run.

A run is an ambient dimension n and a chain of block sizes
n_1, ..., n_{k+1}, plus the trial count and master seed of its Monte
Carlo and its test settings.  Matrix i is the left-uppermost
n_i x n_{i+1} block of an independent n x n Haar unitary, and the product
is square of size n_1.  The aspect ratios alpha_i = n / n_i are the
quantities the limit law depends on.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid outside input: a flag, a config value or an analytic-law alpha (exit 2)."""


def checked_int(name: str, value) -> int:
    """`value` as an int; a bool, a float, a string or any other non-integer is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AspectConfig:
    """A run: ambient dimension, the k+1 block sizes, and sampling and test settings.

    Invariants enforced at construction:
      * every block size is at most n,
      * the first and last block sizes are equal and minimal, so the
        product is square and alpha_1 = max(alpha_i),
      * at least one factor (k >= 1),
      * every array a run allocates (a factor's n x min(n_i, n_{i+1})
        draw, trials * n_1 pooled eigenvalues, grid_points) has a byte
        size, at 16 bytes an entry, that fits in sys.maxsize.
    Integer fields are stored as Python ints and delta as a float.
    """

    n: int
    dims: tuple[int, ...]
    trials: int = 10
    master_seed: int = 0
    delta: float = 0.001
    grid_points: int = 256

    def __post_init__(self):
        try:
            dims = tuple(checked_int(f"dims[{i}]", d) for i, d in enumerate(self.dims))
        except TypeError:  # not iterable
            raise ConfigError(f"dims must be a sequence of integers, got {self.dims!r}") from None
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "n", checked_int("n", self.n))
        if self.n < 1:
            raise ConfigError(f"ambient dimension n must be positive, got {self.n}")
        if len(self.dims) < 2:
            raise ConfigError("dims must list k+1 >= 2 block sizes")
        for i, d in enumerate(self.dims):
            if d < 1:
                raise ConfigError(f"dims[{i}] must be positive, got {d}")
            if d > self.n:
                raise ConfigError(f"dims[{i}]={d} exceeds ambient dimension n={self.n}")
        m = min(self.dims)
        if self.dims[0] != self.dims[-1] or self.dims[0] != m:
            raise ConfigError(
                "first and last block sizes must both equal the minimum "
                f"(got dims={self.dims})"
            )
        for name in ("trials", "master_seed", "grid_points"):  # stored as Python ints
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 unsigned bits")
        if not (isinstance(self.delta, numbers.Real) and not isinstance(self.delta, bool)
                and 0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must be a real number in (0, 1), got {self.delta!r}")
        object.__setattr__(self, "delta", float(self.delta))
        if self.grid_points < 2:
            raise ConfigError(f"grid_points must be >= 2, got {self.grid_points}")
        largest = max(self.n * max(map(min, self.dims, self.dims[1:])),
                      self.trials * self.dims[0], self.grid_points)
        if 16 * largest > sys.maxsize:
            raise ConfigError("sizes too large to allocate: n * min(n_i, n_{i+1}), trials * n_1 "
                              f"and grid_points must each be at most {sys.maxsize // 16}")

    @property
    def k(self) -> int:
        """Number of factors in the product."""
        return len(self.dims) - 1

    @property
    def alphas(self) -> tuple[float, ...]:
        """Aspect ratios alpha_i = n / n_i for i = 1..k."""
        return tuple(self.n / d for d in self.dims[:-1])

    @property
    def out_dim(self) -> int:
        """Size of the (square) product matrix."""
        return self.dims[0]
