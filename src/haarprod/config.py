"""Dimension configuration for truncated-product experiments.

An experiment is parametrized by an ambient dimension n and a chain of
block sizes n_1, ..., n_{k+1}.  Matrix i is the left-uppermost
n_i x n_{i+1} block of an independent n x n Haar unitary, and the product
is square of size n_1.  The aspect ratios alpha_i = n / n_i are the
quantities the limit law depends on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid dimension configuration."""


def checked_int(name: str, value) -> int:
    """`value` as an int; a bool, a float, a string or any other non-integer is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AspectConfig:
    """Ambient dimension plus the k+1 block sizes of the product chain.

    Invariants enforced at construction:
      * every block size is at most n,
      * the first and last block sizes are equal and minimal, so the
        product is square and alpha_1 = max(alpha_i),
      * at least one factor (k >= 1).
    """

    n: int
    dims: tuple[int, ...]

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
