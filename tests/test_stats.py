import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarprod import AspectConfig, limit_law
from haarprod.haar import product_chain, substream, trace_moment
from haarprod.limit_law import RadialLaw, exact_sample, quantile
from haarprod.pipeline import collect_sample
from haarprod.stats import (
    analytic_moments,
    dkw_threshold,
    ks_angular,
    ks_radial,
    ks_radii_against_law,
    ks_statistic,
    moment_rows,
)


class TestKsMachinery:
    def test_dkw_formula(self):
        assert dkw_threshold(10**6, 0.001) == pytest.approx(
            np.sqrt(np.log(2000.0) / (2e6)), rel=1e-13
        )

    def test_perfect_quantile_sample(self):
        # plugging in the law's own mid-quantiles bounds KS by 1/(2n)
        law = RadialLaw((2.0, 1.5))
        n = 1000
        vals = np.array([quantile(law, (j - 0.5) / n) for j in range(1, n + 1)])
        model = limit_law.cdf_many(law, np.sort(vals))
        assert ks_statistic(vals, model) <= 1 / (2 * n) + 1e-9

    def test_permutation_invariance(self):
        law = RadialLaw((2.0,))
        rng = substream(0, 0)
        radii = np.abs(exact_sample(2.0, 1, 500, rng))
        a = ks_radii_against_law(radii, law)
        b = ks_radii_against_law(rng.permutation(radii), law)
        assert a.statistic == b.statistic

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.array([]))


class TestKsRadial:
    def test_exact_sampler_at_dkw_level(self):
        law = RadialLaw((2.0, 2.0))
        z = exact_sample(2.0, 2, 10**6, substream(1, 0))
        rep = ks_radii_against_law(np.abs(z), law, delta=0.001)
        assert rep.statistic <= 0.0014
        assert rep.passed
        assert rep.dkw_threshold == dkw_threshold(10**6, 0.001)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be nonnegative, not NaN"):
            ks_radii_against_law(np.array([0.1, np.nan, 0.2]), RadialLaw((2.0, 2.0)))

    def test_pooled_matrix_spectrum_small(self):
        cfg = AspectConfig(n=240, dims=(120, 120), trials=5, master_seed=2)
        sam = collect_sample(cfg)
        rep = ks_radial(sam, RadialLaw(cfg.alphas))
        assert 0.0 <= rep.statistic <= 0.1
        assert rep.sample_size == 600

    def test_dkw_pass_rate_meta(self):
        # samples drawn from the law itself must pass the DKW test at
        # delta = 0.001 in at least 99% of repetitions
        law = RadialLaw((2.0, 2.0))
        rng = substream(3, 0)
        reps, n = 1000, 1000
        radii = np.abs(exact_sample(2.0, 2, reps * n, rng)).reshape(reps, n)
        thr = dkw_threshold(n, 0.001)
        passes = 0
        for row in radii:
            row = np.sort(row)
            model = limit_law.cdf_many(law, row)
            if ks_statistic(row, model) <= thr:
                passes += 1
        assert passes >= 990


class TestKsAngular:
    def test_uniform_grid(self):
        n = 1000
        angles = (np.arange(1, n + 1) - 0.5) * 2 * np.pi / n
        rep = ks_angular(np.exp(1j * angles))
        assert rep.statistic <= 1 / (2 * n) + 1e-9

    def test_exact_sample_angles(self):
        z = exact_sample(2.0, 2, 10**6, substream(4, 0))
        rep = ks_angular(z)
        assert rep.statistic <= 0.0014

    def test_origin_excluded(self):
        z = np.concatenate([np.exp(1j * np.linspace(0.1, 6.0, 50)), np.zeros(5)])
        rep = ks_angular(z)
        assert rep.sample_size == 50

    def test_all_origin_rejected(self):
        with pytest.raises(ValueError):
            ks_angular(np.zeros(4, dtype=complex))


class TestTraceMoments:
    def test_analytic_values(self):
        assert analytic_moments(RadialLaw((2.0, 2.0)), 1)[0] == pytest.approx(0.25, abs=1e-12)
        assert analytic_moments(RadialLaw((3.0,)), 1)[0] == pytest.approx(1 / 3, abs=1e-12)
        assert analytic_moments(RadialLaw((2.0,)), 2)[1] == pytest.approx(3 / 8, abs=1e-12)

    def test_first_moment_is_reciprocal_alpha_product(self):
        law = RadialLaw((2.0, 1.5))
        assert analytic_moments(law, 1)[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_empirical_within_three_stderr(self):
        cfg = AspectConfig(n=200, dims=(100, 100, 100), master_seed=5)
        mats = [product_chain(cfg, trial=t) for t in range(40)]
        table = np.array([trace_moment(b, 2) for b in mats])
        rows = moment_rows(table, RadialLaw(cfg.alphas))
        assert rows[0].analytic == pytest.approx(0.25, abs=1e-12)
        assert abs(rows[0].z_score) <= 3.5


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_ks_statistic_permutation_invariant_property(data):
    vals = data.draw(
        st.lists(st.floats(min_value=0.01, max_value=0.69), min_size=2, max_size=50)
    )
    law = RadialLaw((2.0,))
    arr = np.array(vals)
    perm = data.draw(st.permutations(vals))
    a = ks_radii_against_law(arr, law)
    b = ks_radii_against_law(np.array(perm), law)
    assert a.statistic == pytest.approx(b.statistic, abs=0)
