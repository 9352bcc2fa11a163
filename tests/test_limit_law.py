import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from haarprod.haar import substream
from haarprod.limit_law import (
    DegenerateLawError,
    DomainError,
    RadialLaw,
    cdf,
    cdf_equal_alpha,
    cdf_many,
    exact_sample,
    pdf_radial_equal_alpha,
    quantile,
    radius_from_uniform,
    s_eval,
)
from haarprod.series import theorem_s_series

ALPHA_SETS = [(2.0,), (2.0, 2.0), (3.0, 1.5), (1.25, 1.25, 1.25), (3.0, 2.0, 1.5, 1.25)]


class TestSEval:
    def test_value_at_zero_is_alpha_product(self):
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            assert s_eval(law, 0.0) == pytest.approx(np.prod(alphas), rel=1e-13)

    def test_equal_alpha_closed_value(self):
        assert s_eval(RadialLaw((2.0, 2.0)), -0.5) == pytest.approx(9.0, rel=1e-13)

    def test_single_factor_value(self):
        assert s_eval(RadialLaw((2.0,)), -0.9) == pytest.approx(11.0, rel=1e-12)

    def test_strictly_decreasing(self):
        law = RadialLaw((2.0, 1.5))
        w = np.linspace(-0.999, 0.0, 400)
        vals = np.array([s_eval(law, x) for x in w])
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        law = RadialLaw((2.0,))
        with pytest.raises(DomainError):
            s_eval(law, -1.0)
        with pytest.raises(DomainError):
            s_eval(law, 0.1)

    def test_degenerate_alpha_rejected(self):
        with pytest.raises(DegenerateLawError):
            s_eval(RadialLaw((1.0,)), -0.5)


class TestSInverse:
    """S^{-1} through the CDF: F(t) = 1 + w solves S(w) = t^-2."""

    @staticmethod
    def invert_s(law, s):
        return cdf_many(law, np.asarray(s, dtype=float) ** -0.5) - 1.0

    def test_boundary(self):
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            assert self.invert_s(law, np.prod(alphas)) == 0.0

    def test_hand_solved_linear_case(self):
        # (w + 2)/(1 + w) = 3 has the solution w = -1/2
        assert self.invert_s(RadialLaw((2.0,)), 3.0) == pytest.approx(-0.5, abs=1e-12)

    def test_inverts_equal_alpha_example(self):
        assert self.invert_s(RadialLaw((2.0, 2.0)), 9.0) == pytest.approx(-0.5, abs=1e-12)

    def test_round_trip_on_grid(self):
        w = np.linspace(-0.999, 0.0, 1000)
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            s = [s_eval(law, x) for x in w]
            assert np.max(np.abs(self.invert_s(law, s) - w)) <= 1e-10

    def test_residual_tolerance(self):
        law = RadialLaw((2.0, 1.5))
        s = np.geomspace(3.0, 1e4, 50)
        for si, w in zip(s, self.invert_s(law, s)):
            assert abs(s_eval(law, w) - si) <= 1e-12 * si

    def test_residual_near_blowup(self):
        # close to w = -1, re-evaluating S at the rounded w loses relative
        # accuracy like eps / (1 + w); the solve itself is still monotone
        law = RadialLaw((2.0, 1.5))
        s = np.geomspace(1e5, 1e9, 20)
        for si, w in zip(s, self.invert_s(law, s)):
            assert -1.0 < w < 0.0
            assert abs(s_eval(law, w) - si) <= 1e-15 / (1.0 + w) * si


class TestCdf:
    def test_zero_at_origin_one_at_edge(self):
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            assert cdf(law, 0.0) == 0.0
            assert cdf(law, law.support_radius) == 1.0
            assert cdf(law, 1.0) == 1.0

    def test_half_mass_point_single_factor(self):
        # (alpha-1) t^2 / (1 - t^2) = 1/2 at t = 1/sqrt(3) for alpha = 2
        assert cdf(RadialLaw((2.0,)), 1 / np.sqrt(3)) == pytest.approx(0.5, abs=1e-12)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            cdf(RadialLaw((2.0,)), -0.1)

    def test_agrees_with_bisection_oracle_unequal(self):
        # oracle: 200 plain bisection steps on S itself
        law = RadialLaw((2.0, 1.5))

        def oracle(t):
            s = t**-2
            lo, hi = -1 + 1e-15, 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if s_eval(law, mid) > s:
                    lo = mid
                else:
                    hi = mid
            return 1 + 0.5 * (lo + hi)

        for t in np.linspace(0.01, law.support_radius, 60):
            assert cdf(law, t) == pytest.approx(oracle(t), abs=1e-10)

    def test_matches_closed_form_equal_alpha(self):
        for alpha in (1.5, 2.0, 3.0):
            for k in (1, 2, 3):
                law = RadialLaw((alpha,) * k)
                ts = np.linspace(0.0, law.support_radius, 1000)
                generic = cdf_many(law, ts)
                closed = np.array([cdf_equal_alpha(alpha, k, t) for t in ts])
                assert np.max(np.abs(generic - closed)) <= 1e-10

    def test_monotone_on_support(self):
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            ts = np.linspace(0.0, law.support_radius * 1.05, 500)
            vals = cdf_many(law, ts)
            assert np.all(np.diff(vals) >= 0)

    def test_degenerate_limit_mass_near_one(self):
        law = RadialLaw((1.0 + 1e-6,))
        assert law.support_radius == pytest.approx(1.0, abs=1e-5)
        assert cdf(law, 0.99) <= 0.01


class TestClosedFormEqualAlpha:
    def test_edge_value(self):
        assert cdf_equal_alpha(2.0, 1, 2.0**-0.5) == 1.0

    def test_hand_values(self):
        assert cdf_equal_alpha(2.0, 2, 0.25) == pytest.approx(1 / 3, rel=1e-13)
        assert cdf_equal_alpha(2.0, 2, 0.5) == 1.0
        assert cdf_equal_alpha(3.0, 1, 0.1) == pytest.approx(2 * 0.01 / 0.99, rel=1e-13)

    def test_clamps_outside_support(self):
        assert cdf_equal_alpha(2.0, 1, -0.5) == 0.0
        assert cdf_equal_alpha(2.0, 1, 0.9) == 1.0


class TestPdfEqualAlpha:
    def test_hand_value(self):
        assert pdf_radial_equal_alpha(2.0, 1, 0.5) == pytest.approx(1.0 / 0.75**2, rel=1e-13)

    def test_normalizes(self):
        for alpha, k in [(2.0, 1), (2.0, 2), (1.5, 3)]:
            edge = alpha ** (-k / 2)
            total, _ = quad(lambda t: pdf_radial_equal_alpha(alpha, k, t), 0, edge, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_outside_open_support(self):
        assert pdf_radial_equal_alpha(2.0, 2, 0.0) == 0.0
        assert pdf_radial_equal_alpha(2.0, 2, 0.5) == 0.0

    def test_matches_cdf_derivative(self):
        h, t = 1e-6, 0.3
        num = (cdf_equal_alpha(2.0, 2, t + h) - cdf_equal_alpha(2.0, 2, t - h)) / (2 * h)
        assert num == pytest.approx(pdf_radial_equal_alpha(2.0, 2, t), abs=1e-6)


class TestQuantile:
    def test_endpoints(self):
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            assert quantile(law, 0.0) == 0.0
            assert quantile(law, 1.0) == law.support_radius

    def test_median_single_factor(self):
        assert quantile(RadialLaw((2.0,)), 0.5) == pytest.approx(1 / np.sqrt(3), rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            quantile(RadialLaw((2.0,)), 1.5)

    def test_inverts_cdf(self):
        ps = np.linspace(0.001, 1.0, 200)
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            qs = [quantile(law, p) for p in ps]
            assert np.max(np.abs(cdf_many(law, qs) - ps)) <= 1e-12


class TestExactSampler:
    def test_uniform_endpoints_map_to_support_endpoints(self):
        assert radius_from_uniform(1.0, 2.0, 3) == pytest.approx(2 ** (-1.5), rel=1e-13)
        assert radius_from_uniform(0.0, 2.0, 3) == 0.0

    def test_alpha_one_lands_on_unit_circle(self):
        z = exact_sample(1.0, 2, 1000, substream(0, 0))
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15

    def test_radii_match_closed_form_law(self):
        rng = substream(1, 0)
        for alpha in (1.5, 2.0, 3.0):
            for k in (1, 2):
                n = 100_000
                r = np.sort(np.abs(exact_sample(alpha, k, n, rng)))
                model = np.array([cdf_equal_alpha(alpha, k, t) for t in r])
                grid = np.arange(1, n + 1) / n
                ks = max(np.max(grid - model), np.max(model - grid + 1.0 / n))
                assert ks <= np.sqrt(np.log(2 / 0.001) / (2 * n))

    def test_angles_uniform(self):
        z = exact_sample(2.0, 2, 100_000, substream(2, 0))
        a = np.sort(np.mod(np.angle(z), 2 * np.pi)) / (2 * np.pi)
        grid = np.arange(1, len(a) + 1) / len(a)
        ks = max(np.max(grid - a), np.max(a - grid + 1.0 / len(a)))
        assert ks <= np.sqrt(np.log(2 / 0.001) / (2 * len(a)))


class TestLawConstruction:
    def test_order_of_alphas_does_not_matter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = RadialLaw((1.5, 2.0))
        assert law.alphas == (1.5, 2.0)
        ordered = RadialLaw((2.0, 1.5))
        ts = np.linspace(0.0, law.support_radius, 200)
        assert np.max(np.abs(cdf_many(law, ts) - cdf_many(ordered, ts))) <= 1e-15
        diff = theorem_s_series(law.alphas, 16) - theorem_s_series(ordered.alphas, 16)
        assert np.max(np.abs(diff)) <= 1e-14

    def test_alpha_one_rejected_at_construction(self):
        with pytest.raises(DegenerateLawError):
            RadialLaw((2.0, 1.0))

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            RadialLaw((0.9,))


@given(
    alpha=st.floats(min_value=1.1, max_value=5.0),
    k=st.integers(min_value=1, max_value=4),
    t_pair=st.tuples(
        st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)
    ),
)
@settings(max_examples=200, deadline=None)
def test_cdf_equal_alpha_monotone(alpha, k, t_pair):
    lo, hi = sorted(t_pair)
    assert cdf_equal_alpha(alpha, k, lo) <= cdf_equal_alpha(alpha, k, hi)


@given(
    alphas=st.lists(st.floats(min_value=1.05, max_value=4.0), min_size=1, max_size=4),
    p=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_quantile_cdf_identity_property(alphas, p):
    law = RadialLaw(tuple(alphas))
    assert cdf(law, quantile(law, p)) == pytest.approx(p, abs=1e-11)
