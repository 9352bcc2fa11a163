"""Limiting spectral distribution of products of truncated Haar unitaries."""

from .config import AspectConfig, ConfigError
from .limit_law import RadialLaw

__all__ = ["AspectConfig", "ConfigError", "RadialLaw"]
