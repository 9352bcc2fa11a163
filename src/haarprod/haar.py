"""Haar unitary sampling and products of their rectangular corners.

Haar matrices are generated by the Ginibre + QR construction with the
diagonal phase correction (Mezzadri 2007); raw QR output is not Haar.
A corner block is drawn along its short side, at the size it keeps: n x c
Ginibre entries, c = min(rows, cols), factored in place by LAPACK's
geqrf and ungqr, and a wide block is the transpose of a tall one.  A
product holds one factor's Q at a time.  All randomness flows through
named substreams of a single master seed so that trials are reproducible
independently of evaluation order.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from a master seed and an integer key.

    The same (seed, key) pair always yields the same stream, regardless of
    how many other streams were created before it.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def sample_ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard complex normal matrix (variance 1/2 per component), C order.

    One (rows, cols, 2) normal draw, divided by sqrt(2) in place and viewed
    as complex: entry (i, j) takes its real and imaginary part from two
    consecutive normals, and row i the 2 * cols normals after those of rows
    0..i-1, so the first r rows are the same numbers for every rows >= r.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    x = rng.standard_normal((rows, cols, 2))
    x /= np.sqrt(2.0)
    return x.view(complex)[..., 0]


def _in_place(routine, *args):
    """Call a LAPACK wrapper on args[0] in place, with the workspace size it asks for.

    The query passes `overwrite_a` too: without it f2py copies the matrix
    just to be asked for a number.  Returns the outputs before work and info.
    """
    lwork = routine(*args, lwork=-1, overwrite_a=True)[-2][0].real.astype(np.int_)
    *out, _, info = routine(*args, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise np.linalg.LinAlgError(f"illegal value in argument {-info} of LAPACK QR")
    return out


def haar_unitary(n: int, rng: np.random.Generator, cols: int) -> np.ndarray:
    """First `cols` columns of an n x n Haar unitary.

    Thin QR of an n x cols Ginibre block, each column of Q multiplied by
    the phase of its diagonal entry of R: the unique factorization with
    positive-diagonal R, which is provably Haar.  The block is the
    transpose of a cols x n draw, i.e. the first `cols` columns of the
    n x n draw from the same stream; column j of Q depends on columns
    1..j only, so this is that unitary's column block (up to roundoff).
    The transposed C-order draw is already in Fortran order: geqrf
    factors it in place, R's diagonal is read before ungqr overwrites it
    with Q, and the phase is applied in place, so Q is the draw's memory
    and R is never formed.  A zero pivot (probability zero) keeps phase 1,
    so Q stays orthonormal.
    """
    if not 1 <= cols <= n:
        raise ValueError(f"need 1 <= cols <= n, got cols={cols}, n={n}")
    x = sample_ginibre(cols, n, rng).T
    geqrf, ungqr = scipy.linalg.lapack.get_lapack_funcs(("geqrf", "ungqr"), (x,))
    qr, tau = _in_place(geqrf, x)
    d = np.diagonal(qr).copy()
    q, = _in_place(ungqr, qr, tau)
    q *= np.divide(d, np.abs(d), out=np.ones_like(d), where=d != 0)
    return q


def product_chain(config, trial: int = 0) -> np.ndarray:
    """Product of k independent truncated Haar unitaries for one trial of `config`.

    Matrix i is the n_i x n_{i+1} corner block of its own Haar draw; the
    result is square of size n_1 and a contraction.  Each of the k draws
    uses substream (trial, i) of `config.master_seed` and keeps only
    c = min(n_i, n_{i+1}) columns.  A tall or square block is the first
    n_i rows of those columns.  A wide block is the transpose of the first
    n_{i+1} rows: the transpose of a Haar unitary is Haar, so its corner
    has the same law.  One factor's Q is alive at a time: when more
    factors follow, factor 0's block is copied out of its Q (same layout,
    so the product's bits do not move), and each Q is released before the
    next draw.
    """
    b = None
    for i, (rows, cols) in enumerate(zip(config.dims, config.dims[1:])):
        q = haar_unitary(config.n, substream(config.master_seed, trial, i), min(rows, cols))
        a = q[:rows] if rows >= cols else q[:cols].T
        if b is not None:
            b = b @ a
        else:
            b = a.copy(order="K") if i + 1 < config.k else a
        del q, a
    return b


def trace_moment(b: np.ndarray, p_max: int) -> np.ndarray:
    """Normalized traces (1/m) Tr((BB*)^p) of a square matrix B for p = 1..p_max.

    All orders come from one SVD, which keeps them exact, real and nonnegative.
    """
    m, mm = b.shape
    if m != mm:
        raise ValueError(f"matrix must be square, got {m}x{mm}")
    if p_max < 1:
        raise ValueError(f"highest moment order must be positive, got {p_max}")
    sv = np.linalg.svd(b, compute_uv=False)
    return np.array([np.sum(sv ** (2 * p)) / m for p in range(1, p_max + 1)])
