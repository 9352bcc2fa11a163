"""Limiting spectral distribution of products of truncated Haar unitaries."""

from .config import AspectConfig, ConfigError
from .haar import haar_unitary, product_chain, sample_ginibre, substream, trace_moment, truncate_block
from .limit_law import (
    RadialLaw,
    cdf,
    cdf_equal_alpha,
    cdf_many,
    exact_sample,
    pdf_radial_equal_alpha,
    quantile,
    s_eval,
    s_inverse,
)
from .pipeline import collect_sample
from .spectra import EigenSample, eigenvalues
from .stats import KsReport, ks_angular, ks_radial, moment_report

__all__ = [
    "AspectConfig",
    "ConfigError",
    "EigenSample",
    "KsReport",
    "RadialLaw",
    "cdf",
    "cdf_equal_alpha",
    "cdf_many",
    "collect_sample",
    "eigenvalues",
    "exact_sample",
    "haar_unitary",
    "ks_angular",
    "ks_radial",
    "moment_report",
    "pdf_radial_equal_alpha",
    "product_chain",
    "quantile",
    "s_eval",
    "s_inverse",
    "sample_ginibre",
    "substream",
    "trace_moment",
    "truncate_block",
]
