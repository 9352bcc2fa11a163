"""In-memory span recorder around haarprod's public functions.

A span is recorded for each call of a wrapped function while an op is
active: (name, start, end, parent, op, counts).  Functions are wrapped
in every namespace they are looked up from, because a module that did
`from .haar import product_chain` calls its own binding, not
`haar.product_chain`.  A span is named after the module that defines
the function: `product_chain`, wrapped in `pipeline`, records
`haar.product_chain`.

Spans stay in memory and are written out as JSON lines by `dump`.  The
helpers at the bottom turn a span file into self times and counts per
span name.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

# The layers are the package modules; shares are reported for each.
LAYERS = ("config", "haar", "spectra", "limit_law", "series", "stats", "pipeline", "cli")


class MissingTargetError(RuntimeError):
    """A function the benchmark wraps no longer exists where it is looked up."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root of an op
    op: int
    counts: dict = field(default_factory=dict)


# Nominal real-flop counts of the LAPACK calls inside a span, computed from
# the matrix size (Golub & Van Loan counts, 4 real flops per complex op):
# complex QR with explicit Q is 16/3 n^3 (geqrf) + 16/3 n^3 (ungqr); complex
# eigenvalues without vectors is 4 * 10 m^3 (Hessenberg reduction + QR sweeps).
def _qr_counts(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return {"n": n, "flop": 32.0 / 3.0 * n**3}


def _eig_counts(args, kwargs, result):
    m = len(result)
    return {"points": m, "flop": 40.0 * m**3}


def _cdf_counts(args, kwargs, result):
    return {"points": int(result.size)}


def _draw_counts(args, kwargs, result):
    return {"draws": int(len(result))}


def _kept_columns(args, kwargs, result):
    # product_chain(config, ...): factor i keeps dims[i+1] of the n columns drawn.
    config = args[0] if args else kwargs["config"]
    return {"drawn_columns": config.n * config.k, "kept_columns": sum(config.dims[1:])}


def _table_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return {"rows": rows - 1, "bytes": os.path.getsize(path)}


# (namespace, attribute, defining layer, counter).  A public function an op
# reaches is wrapped where it is looked up when a metric names it or when
# it is called from another layer; a function called only from its own
# layer stays in its caller's self time.  So `truncate_block` is not
# wrapped and `product_chain` self time is truncation copies plus matmul.
# The generator `eig_rows` returns before doing its work, so its rows are
# built inside `write_table`, and per-point helpers such as
# `pdf_radial_equal_alpha` would cost more than they measure.
TARGETS = [
    ("cli", "main", "cli", None),
    ("cli", "run_sample_eigs", "pipeline", None),
    ("cli", "run_analytic_cdf", "pipeline", None),
    ("cli", "run_exact_sample", "pipeline", None),
    ("cli", "write_verify", "pipeline", None),
    ("pipeline", "run_verify", "pipeline", None),
    ("pipeline", "write_table", "pipeline", _table_counts),
    ("pipeline", "AspectConfig", "config", None),
    ("pipeline", "product_chain", "haar", _kept_columns),
    ("pipeline", "substream", "haar", None),
    ("pipeline", "trace_moment", "haar", None),
    ("pipeline", "eigenvalues", "spectra", _eig_counts),
    ("haar", "haar_unitary", "haar", _qr_counts),
    ("haar", "sample_ginibre", "haar", None),
    ("stats", "ks_radial", "stats", None),
    ("stats", "ks_angular", "stats", None),
    ("stats", "ks_radii_against_law", "stats", None),
    ("stats", "moment_rows", "stats", None),
    ("limit_law", "cdf_many", "limit_law", _cdf_counts),
    ("limit_law", "exact_sample", "limit_law", _draw_counts),
    ("series", "theorem_s_series", "series", None),
    ("series", "scaled_s_check", "series", None),
    ("series", "moments_from_s", "series", None),
]
# Library calls counted (not timed) in the innermost open span, so that a
# refactor which stops calling `trace_moment` still shows its SVD count.
COUNTED = [
    ("numpy.linalg", "svd", "svd_calls"),
    ("scipy.linalg", "svd", "svd_calls"),
    ("scipy.linalg", "svdvals", "svd_calls"),
]


class SpanRecorder:
    """Wraps target functions; records spans only while `op` is not None."""

    def __init__(self, modules, table=TARGETS, counted=COUNTED):
        """`modules` maps each namespace named in the tables to its module."""
        self.table = [(modules[ns], attr, f"{layer}.{attr}", counter)
                      for ns, attr, layer, counter in table]
        self.counted = [(modules[ns], attr, key) for ns, attr, key in counted]
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        missing = [f"{ns.__name__}.{attr}" for ns, attr, *_ in self.table + self.counted
                   if not hasattr(ns, attr)]
        if missing:
            raise MissingTargetError(
                "benchmark span targets no longer exist: " + ", ".join(missing))
        for ns, attr, name, counter in self.table:
            original = getattr(ns, attr)
            self._saved.append((ns, attr, original))
            setattr(ns, attr, self._wrap(original, name, counter))
        for ns, attr, key in self.counted:
            original = getattr(ns, attr)
            self._saved.append((ns, attr, original))
            setattr(ns, attr, self._count(original, key))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, counter):
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.op is None:
                return fn(*args, **kwargs)
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else -1
            span = Span(name, 0.0, 0.0, parent, recorder.op)
            recorder.spans.append(span)
            recorder._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return _named(wrapper, fn)

    def _count(self, fn, key):
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.op is not None and recorder._stack:
                counts = recorder.spans[recorder._stack[-1]].counts
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return _named(wrapper, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _named(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def load(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time covered by its direct children.

    The recorder runs in one thread, so children nest inside their parent
    and never overlap one another.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_span_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self time and summed counts over all ops."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in span["counts"].items():
            entry[key] = entry.get(key, 0) + value
    return totals
