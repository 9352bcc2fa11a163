import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ks_2samp

from haarprod import AspectConfig, ConfigError, haar
from haarprod.haar import (
    haar_unitary,
    product_chain,
    sample_ginibre,
    substream,
    trace_moment,
)
from oracles import haar_unitary_qr


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees during fn(*args), after one untraced call."""
    fn(*args)  # first calls may allocate caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAspectConfig:
    def test_alphas_derived(self):
        cfg = AspectConfig(n=8, dims=(4, 6, 4))
        assert cfg.k == 2
        assert cfg.alphas == (2.0, 8 / 6)
        assert cfg.out_dim == 4

    def test_rejects_dim_above_n(self):
        with pytest.raises(ConfigError):
            AspectConfig(n=4, dims=(5, 5))

    def test_rejects_nonminimal_endpoints(self):
        with pytest.raises(ConfigError):
            AspectConfig(n=8, dims=(6, 4, 6))
        with pytest.raises(ConfigError):
            AspectConfig(n=8, dims=(4, 6, 5))

    def test_rejects_short_chain(self):
        with pytest.raises(ConfigError):
            AspectConfig(n=8, dims=(8,))

    @pytest.mark.parametrize("n, dims", [
        (16, (8.9, 8.2, 8.9)), (16.0, (8, 8)), (True, (1, 1)), (16, (True, True)),
        ("16", (8, 8)), (16, ("8", "8")), (16, "88"), (16, 8), (16, None),
    ], ids=["float-dims", "float-n", "bool-n", "bool-dims", "string-n", "string-dims",
            "string-as-dims", "scalar-dims", "no-dims"])
    def test_rejects_non_integer_sizes(self, n, dims):
        with pytest.raises(ConfigError):
            AspectConfig(n=n, dims=dims)

    def test_accepts_numpy_integers(self):
        cfg = AspectConfig(n=np.int64(16), dims=[np.int32(8), np.uint8(8)])
        assert cfg.dims == (8, 8) and all(type(d) is int for d in cfg.dims)
        assert cfg.n == 16 and type(cfg.n) is int


class TestGinibre:
    def test_scalar_draw_finite(self):
        g = sample_ginibre(1, 1, substream(0, 0))
        assert g.shape == (1, 1)
        assert np.isfinite(g).all()

    def test_entry_statistics(self):
        # 1e5 i.i.d. entries; CLT bound 4/sqrt(1e5) per component
        g = sample_ginibre(400, 250, substream(1, 0)).ravel()
        bound = 4 / np.sqrt(g.size)
        assert abs(g.real.mean()) <= bound
        assert abs(g.imag.mean()) <= bound
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) <= 0.02

    @pytest.mark.parametrize("rows, cols", [(1, 1), (7, 7), (5, 3), (64, 64), (300, 300),
                                            (300, 200)])
    def test_stream_matches_componentwise_expression(self, rows, cols):
        x = substream(16, rows, cols).standard_normal((rows, cols, 2)) / np.sqrt(2.0)
        g = sample_ginibre(rows, cols, substream(16, rows, cols))
        assert np.array_equal(g.real, x[..., 0]) and np.array_equal(g.imag, x[..., 1])
        # a draw of fewer rows is the leading rows of this one, exactly
        c = (rows + 1) // 2
        assert np.array_equal(sample_ginibre(c, cols, substream(16, rows, cols)), g[:c])


class TestHaarUnitary:
    def test_scalar_is_unimodular(self):
        u = haar_unitary(1, substream(2, 0), 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_columns_orthonormal(self):
        u = haar_unitary(8, substream(3, 0), 8)
        gram = u.conj().T @ u
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64, 256])
    def test_unitarity_across_sizes(self, n):
        for seed in (0, 1):
            u = haar_unitary(n, substream(seed, n), n)
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-12 * n

    def test_zero_pivot_keeps_unitarity(self, monkeypatch):
        # the draw's first row is the kept block's first column; zeroed, it
        # makes R[0, 0] exactly 0, whose phase stays 1
        def ginibre_with_zero_first_row(rows, cols, rng):
            g = sample_ginibre(rows, cols, rng)
            g[0] = 0.0
            return g

        factored, get_funcs = [], scipy.linalg.lapack.get_lapack_funcs

        def funcs_with_geqrf_spy(names, arrays):
            geqrf, ungqr = get_funcs(names, arrays)

            def geqrf_spy(a, lwork, overwrite_a):
                if lwork != -1:
                    factored.append(a.copy())
                return geqrf(a, lwork=lwork, overwrite_a=overwrite_a)

            return geqrf_spy, ungqr

        monkeypatch.setattr(haar, "sample_ginibre", ginibre_with_zero_first_row)
        monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", funcs_with_geqrf_spy)
        for cols in (6, 3):
            u = haar_unitary(6, substream(4, 0), cols)
            assert factored[-1].shape == (6, cols) and np.all(factored[-1][:, 0] == 0)
            assert u.shape == (6, cols)
            assert np.max(np.abs(u.conj().T @ u - np.eye(cols))) <= 1e-12

    @pytest.mark.parametrize("n, cols", [(16, 16), (12, 5), (64, 1), (600, 300), (600, 599)])
    def test_matches_scipy_qr_bit_for_bit(self, n, cols):
        u = haar_unitary(n, substream(20, n, cols), cols)
        assert np.array_equal(u, haar_unitary_qr(n, substream(20, n, cols), cols))

    def test_factors_the_draw_in_place(self, monkeypatch):
        draws = []

        def recorded_ginibre(rows, cols, rng):
            draws.append(sample_ginibre(rows, cols, rng))
            return draws[-1]

        monkeypatch.setattr(haar, "sample_ginibre", recorded_ginibre)
        q = haar_unitary(600, substream(21, 0), 300)
        assert np.shares_memory(q, draws[0])
        monkeypatch.undo()
        # the 600 x 300 complex draw is 2.88 MB; R, a copy of the draw (as a
        # workspace query without overwrite_a makes) or a second Q would add >= 1.4 MB
        peak = traced_peak(lambda: haar_unitary(600, substream(21, 0), 300))
        assert peak <= 1.1 * 600 * 300 * 16

    @pytest.mark.parametrize("n, cols", [(1, 1), (5, 2), (64, 30), (100, 50), (257, 128),
                                         (600, 300), (600, 599)])
    def test_kept_columns_match_full_draw(self, n, cols):
        u = haar_unitary(n, substream(13, n), cols)
        full = haar_unitary(n, substream(13, n), n)
        assert u.shape == (n, cols)
        assert np.max(np.abs(u - full[:, :cols])) <= 1e-15

    @pytest.mark.parametrize("cols", [0, 7])
    def test_cols_out_of_range_rejected(self, cols):
        with pytest.raises(ValueError):
            haar_unitary(6, substream(15, 0), cols)

    def test_first_entry_second_moment(self):
        # E|U_11|^2 = 1/n for the Haar measure
        n, draws = 4, 10_000
        rng = substream(4, 0)
        vals = [abs(haar_unitary(n, rng, n)[0, 0]) ** 2 for _ in range(draws)]
        assert abs(np.mean(vals) - 1 / n) <= 0.02

    def test_left_invariance_of_trace(self):
        # Tr(VU) must be distributed like Tr(U) for any fixed unitary V
        n, draws = 6, 10_000
        j, l = np.meshgrid(np.arange(n), np.arange(n))
        v = np.exp(2j * np.pi * j * l / n) / np.sqrt(n)  # DFT matrix, unitary
        rng_a, rng_b = substream(5, 0), substream(5, 1)
        tr_u = np.array([np.trace(haar_unitary(n, rng_a, n)) for _ in range(draws)])
        tr_vu = np.array([np.trace(v @ haar_unitary(n, rng_b, n)) for _ in range(draws)])
        assert ks_2samp(tr_u.real, tr_vu.real).pvalue > 0.001
        assert ks_2samp(tr_u.imag, tr_vu.imag).pvalue > 0.001


class TestProductChain:
    def test_untruncated_chain_is_haar_unitary(self):
        cfg = AspectConfig(n=16, dims=(16, 16), master_seed=7)
        b = product_chain(cfg)
        assert np.array_equal(b, haar_unitary(16, substream(7, 0, 0), 16))
        eigs = np.linalg.eigvals(b)
        assert np.max(np.abs(np.abs(eigs) - 1.0)) <= 1e-10

    def test_inner_dimension_chain(self):
        cfg = AspectConfig(n=8, dims=(4, 6, 4), master_seed=8)
        b = product_chain(cfg)
        assert b.shape == (4, 4)

    def test_contraction(self):
        for dims in [(4, 4, 4), (4, 6, 4), (3, 5, 6, 3)]:
            cfg = AspectConfig(n=8, dims=dims, master_seed=9)
            b = product_chain(cfg)
            assert np.linalg.svd(b, compute_uv=False).max() <= 1 + 1e-10

    def test_wide_factor_is_transposed_short_side_draw(self):
        # factor 0 is 4 x 8 (wide): the transpose of the first 8 rows of 4 kept columns
        for seed in (0, 17):
            b = product_chain(AspectConfig(n=8, dims=(4, 8, 4), master_seed=seed))
            expected = (haar_unitary(8, substream(seed, 0, 0), 4).T
                        @ haar_unitary(8, substream(seed, 0, 1), 4))
            assert np.array_equal(b, expected)

    @pytest.mark.parametrize("n, dims", [(8, (4, 6, 4)), (8, (3, 5, 6, 3)), (8, (4, 4, 4)),
                                         (60, (30, 40, 50, 30)), (16, (16, 16))])
    def test_each_factor_draws_its_short_side(self, monkeypatch, n, dims):
        requested = []

        def spy(n, rng, cols):
            requested.append(cols)
            return haar_unitary(n, rng, cols)

        monkeypatch.setattr(haar, "haar_unitary", spy)
        b = product_chain(AspectConfig(n=n, dims=dims, master_seed=18))
        assert requested == [min(r, c) for r, c in zip(dims, dims[1:])]
        assert b.shape == (dims[0], dims[0])

    def test_peak_traced_memory(self):
        # Measured 6.24 MB, at the product matmul: factor 0's kept 300 x 400 block
        # (1.9 MB), factor 1's 600 x 300 Q (2.9 MB) and B (1.4 MB). Keeping factor
        # 0's whole 600 x 300 Q (2.9 MB) through factor 1's QR, with its 300 x 300
        # R (1.4 MB), put it at 7.43 MB; a full 600 x 600 draw at 11.5 MB.
        cfg = AspectConfig(n=600, dims=(300, 400, 300), master_seed=19)
        assert traced_peak(product_chain, cfg) <= 6.6e6

    def test_deterministic_in_seed(self):
        cfg = AspectConfig(n=8, dims=(4, 6, 4), master_seed=10)
        b1 = product_chain(cfg, trial=3)
        b2 = product_chain(cfg, trial=3)
        assert np.array_equal(b1, b2)

    def test_trials_are_distinct(self):
        cfg = AspectConfig(n=8, dims=(4, 6, 4), master_seed=10)
        b1 = product_chain(cfg, trial=0)
        b2 = product_chain(cfg, trial=1)
        assert not np.allclose(b1, b2)


class TestTraceMoment:
    def test_identity(self):
        assert trace_moment(np.eye(5, dtype=complex), 4) == pytest.approx(np.ones(4))

    def test_zero_matrix(self):
        assert np.array_equal(trace_moment(np.zeros((3, 3), dtype=complex), 2), [0.0, 0.0])

    def test_p_max_below_one_rejected(self):
        b = product_chain(AspectConfig(n=8, dims=(4, 4), master_seed=11))
        with pytest.raises(ValueError):
            trace_moment(b, 0)

    def test_mean_first_moment_matches_limit(self):
        # phi(aa*) = 1 / (alpha_1 alpha_2) = 1/4 at alpha = (2, 2)
        cfg = AspectConfig(n=400, dims=(200, 200, 200), master_seed=12)
        vals = [trace_moment(product_chain(cfg, trial=t), 1)[0] for t in range(50)]
        assert abs(np.mean(vals) - 0.25) <= 0.01
