import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from haarprod import limit_law
from haarprod.haar import substream
from haarprod.config import ConfigError
from haarprod.limit_law import (
    RadialLaw,
    cdf_many,
    exact_sample,
    pdf_many,
    quantile,
)
from haarprod.series import theorem_s_series
from oracles import cdf_equal_alpha, pdf_equal_alpha, s_eval

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
        with pytest.raises(ValueError, match=r"w must lie in \(-1, 0\]"):
            s_eval(law, -1.0)
        with pytest.raises(ValueError, match=r"w must lie in \(-1, 0\]"):
            s_eval(law, 0.1)

    def test_degenerate_alpha_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
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
        with warnings.catch_warnings():
            # t**-2 overflows below t ~ 1e-154, which must not warn
            warnings.simplefilter("error")
            for alphas in ALPHA_SETS:
                law = RadialLaw(alphas)
                for t in (0.0, 1e-200, 5e-324):
                    assert cdf_many(law, t) == 0.0
                assert cdf_many(law, law.support_radius) == 1.0
                assert cdf_many(law, 1.0) == 1.0

    def test_half_mass_point_single_factor(self):
        # (alpha-1) t^2 / (1 - t^2) = 1/2 at t = 1/sqrt(3) for alpha = 2
        assert cdf_many(RadialLaw((2.0,)), 1 / np.sqrt(3)) == pytest.approx(0.5, abs=1e-12)

    def test_negative_radius_rejected(self):
        for t in (-0.1, np.nan, [0.1, np.nan, 0.2]):
            with pytest.raises(ValueError, match="radius must be nonnegative, not NaN"):
                cdf_many(RadialLaw((2.0,)), t)

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
            assert cdf_many(law, t) == pytest.approx(oracle(t), abs=1e-10)

    def test_matches_closed_form_equal_alpha(self):
        for alpha in (1.5, 2.0, 3.0):
            for k in (1, 2, 3):
                law = RadialLaw((alpha,) * k)
                ts = np.linspace(0.0, law.support_radius, 1000)
                generic = cdf_many(law, ts)
                closed = np.array([cdf_equal_alpha(alpha, k, t) for t in ts])
                assert np.max(np.abs(generic - closed)) <= 1e-10

    def test_relative_accuracy_near_origin_equal_alpha(self):
        # cdf_many reads 0 below its floor F = 1e-15 by design; keep a decade clear of it
        for alpha in (1.5, 2.0, 3.0):
            for k in (1, 2, 3):
                law = RadialLaw((alpha,) * k)
                ts = np.geomspace(1e-12, law.support_radius, 1000)
                closed = np.array([cdf_equal_alpha(alpha, k, t) for t in ts])
                keep = closed > 1e-14
                rel = np.abs(cdf_many(law, ts[keep]) / closed[keep] - 1.0)
                assert np.max(rel) <= 1e-13

    def test_inverts_quantile_near_origin_unequal(self):
        law = RadialLaw((3.0, 1.5))
        for p in (1e-12, 1e-9, 1e-6):
            assert abs(cdf_many(law, quantile(law, p)) / p - 1.0) <= 1e-13

    def test_monotone_on_support(self):
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            ts = np.linspace(0.0, law.support_radius * 1.05, 500)
            vals = cdf_many(law, ts)
            assert np.all(np.diff(vals) >= 0)

    def test_degenerate_limit_mass_near_one(self):
        law = RadialLaw((1.0 + 1e-6,))
        assert law.support_radius == pytest.approx(1.0, abs=1e-5)
        assert cdf_many(law, 0.99) <= 0.01

    def test_inversion_schedule_pass_count(self, monkeypatch):
        # 12 bisection steps and 8 Newton steps
        calls = []
        log_s = limit_law._log_s

        def counted(law, v):
            calls.append(v)
            return log_s(law, v)

        monkeypatch.setattr(limit_law, "_log_s", counted)
        law = RadialLaw((2.0, 1.5))
        cdf_many(law, np.linspace(0.0, law.support_radius, 1000))
        assert len(calls) == 20

    def test_pdf_pass_count(self, monkeypatch):
        # the cdf_many schedule plus one pass for d log S/dv
        calls = []
        log_s = limit_law._log_s

        def counted(law, v):
            calls.append(v)
            return log_s(law, v)

        monkeypatch.setattr(limit_law, "_log_s", counted)
        law = RadialLaw((2.0, 1.5))
        pdf_many(law, np.linspace(0.0, law.support_radius, 1000))
        assert len(calls) == 21

    def test_log_s_residual_of_inversion(self):
        for alphas in [(1.0 + 1e-6,), (1.01,), (2.0, 1.5), (3.0, 3.0, 3.0), (1000.0, 2.0),
                       (50.0, 1.001, 3.0)]:
            law = RadialLaw(alphas)
            ts = np.geomspace(1e-9, law.support_radius, 100_000)
            f = cdf_many(law, ts)
            inner = (f > 0.0) & (f < 1.0)
            log_s, _ = limit_law._log_s(law, np.log(f[inner]))  # v = log(1 + w) = log F
            assert np.max(np.abs(log_s - np.log(ts[inner] ** -2.0))) <= 3e-14, alphas

    def test_monotone_on_law_tables_grid(self):
        law = RadialLaw((2.0, 1.5))
        vals = cdf_many(law, np.linspace(0.0, law.support_radius, 100_000))
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= 0.0)


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
        assert pdf_many(RadialLaw((2.0,)), 0.5) == pytest.approx(1.0 / 0.75**2, rel=1e-13)

    def test_normalizes(self):
        for alpha, k in [(2.0, 1), (2.0, 2), (1.5, 3)]:
            law = RadialLaw((alpha,) * k)
            total, _ = quad(lambda t: pdf_many(law, t), 0, law.support_radius, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_outside_open_support(self):
        law = RadialLaw((2.0, 2.0))
        # the support radius is 0.5; at t = 1e-30, F = 1e-30 lies below the inversion floor
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # t**-2 overflows at the two tiniest t
            for t in (0.0, 1e-200, 5e-324, 1e-30, 0.5, 0.6):
                assert pdf_many(law, t) == 0.0

    def test_matches_cdf_derivative(self):
        h, t = 1e-6, 0.3
        num = (cdf_equal_alpha(2.0, 2, t + h) - cdf_equal_alpha(2.0, 2, t - h)) / (2 * h)
        assert num == pytest.approx(pdf_many(RadialLaw((2.0, 2.0)), t), abs=1e-6)

    def test_array_call_matches_scalar_calls(self):
        law = RadialLaw((1.5,) * 3)
        ts = np.linspace(0.0, 0.4, 101)  # support radius 1.5**-1.5 = 0.544
        one_call = pdf_many(law, ts)
        scalars = np.array([pdf_many(law, t) for t in ts])
        assert one_call[0] == 0.0
        assert np.max(np.abs(one_call[1:] / scalars[1:] - 1.0)) <= 1e-14

    def test_matches_closed_form_oracle(self):
        for alphas in [(1.01,), (2.0,), (2.0, 2.0), (3.0, 3.0, 3.0), (1.5, 1.5, 1.5),
                       (50.0, 50.0)]:
            law = RadialLaw(alphas)
            for ts in (np.geomspace(1e-12, law.support_radius, 10_000),
                       np.linspace(0.0, law.support_radius, 10_000)):
                f = cdf_many(law, ts)
                inner = (f > 0.0) & (f < 1.0)
                closed = pdf_equal_alpha(alphas[0], len(alphas), ts[inner])
                rel = np.abs(pdf_many(law, ts[inner]) / closed - 1.0)
                assert np.max(rel) <= 1e-13, alphas


class TestPdf:
    def test_integrates_to_cdf_increments_unequal_alpha(self):
        for alphas in [(2.0, 1.5), (3.0, 2.0, 1.5), (50.0, 1.001, 3.0)]:
            law = RadialLaw(alphas)
            edges = np.linspace(0.0, law.support_radius, 9)
            increments = np.diff(cdf_many(law, edges))
            for a, b, df in zip(edges[:-1], edges[1:], increments):
                total, _ = quad(lambda t: pdf_many(law, t), a, b,
                                epsabs=1e-14, epsrel=1e-13, limit=200)
                assert abs(total - df) <= 1e-11, alphas

    def test_negative_radius_rejected(self):
        for t in (-0.1, np.nan, [0.1, np.nan, 0.2]):
            with pytest.raises(ValueError, match="radius must be nonnegative, not NaN"):
                pdf_many(RadialLaw((2.0,)), t)


class TestQuantile:
    def test_endpoints(self):
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            assert quantile(law, 0.0) == 0.0
            assert quantile(law, 1.0) == law.support_radius

    def test_median_single_factor(self):
        assert quantile(RadialLaw((2.0,)), 0.5) == pytest.approx(1 / np.sqrt(3), rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\]"):
            quantile(RadialLaw((2.0,)), 1.5)
        with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\]"):
            quantile(RadialLaw((2.0,)), np.array([0.5, -0.1]))

    def test_inverts_cdf(self):
        ps = np.linspace(0.001, 1.0, 200)
        for alphas in ALPHA_SETS:
            law = RadialLaw(alphas)
            qs = [quantile(law, p) for p in ps]
            assert np.max(np.abs(cdf_many(law, qs) - ps)) <= 1e-12

    def test_array_call_matches_equal_alpha_closed_form(self):
        ps = np.geomspace(1e-12, 1.0, 200)
        for alphas in [(2.0,), (1.25,), (2.0, 2.0), (1.5, 1.5, 1.5)]:
            alpha, k = alphas[0], len(alphas)
            closed = (ps / (alpha - 1.0 + ps)) ** (k / 2)
            assert np.max(np.abs(quantile(RadialLaw(alphas), ps) / closed - 1.0)) <= 1e-13


class TestExactSampler:
    def test_uniform_endpoints_map_to_support_endpoints(self):
        law = RadialLaw((2.0,) * 3)
        assert quantile(law, 1.0) == pytest.approx(2 ** (-1.5), rel=1e-13)
        assert quantile(law, 0.0) == 0.0

    def test_alpha_one_lands_on_unit_circle(self):
        z = exact_sample(1.0, 2, 1000, substream(0, 0))
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            exact_sample(0.9, 1, 10, substream(0, 0))

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
        with pytest.raises(ConfigError, match="alpha"):
            RadialLaw((2.0, 1.0))

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            RadialLaw((0.9,))

    def test_non_finite_alpha_rejected(self):
        for alphas in [(np.nan,), (np.inf,), (2.0, np.nan)]:
            with pytest.raises(ConfigError, match="alpha"):
                RadialLaw(alphas)
        with pytest.raises(ConfigError, match="alpha"):
            exact_sample(np.nan, 1, 5, substream(0, 0))


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
    assert cdf_many(law, quantile(law, p)) == pytest.approx(p, abs=1e-11)


@pytest.mark.parametrize("evaluate", [cdf_many, pdf_many, quantile])
def test_scalar_gives_float_and_array_keeps_shape(evaluate):
    law = RadialLaw((2.0, 1.5))
    assert type(evaluate(law, 0.3)) is float
    assert type(evaluate(law, np.float64(0.3))) is float
    for shape in [(1,), (4,), (2, 3)]:
        out = evaluate(law, np.full(shape, 0.3))
        assert isinstance(out, np.ndarray) and out.shape == shape
