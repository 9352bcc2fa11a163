import itertools

import numpy as np
import pytest
import sympy
from scipy.integrate import quad

from haarprod import limit_law
from haarprod.limit_law import RadialLaw
from haarprod.series import (
    moments_from_s,
    product_s_check,
    rational_series,
    scaled_s_check,
    series,
    series_div,
    series_mul,
    s_block,
    theorem_s_series,
)
from oracles import exact_moments, m_from_moments, s_eval, s_transform_of


def sympy_taylor(expr, z, order):
    """Independent Taylor-coefficient oracle."""
    poly = sympy.series(expr, z, 0, order + 1).removeO()
    return [float(poly.coeff(z, j)) for j in range(order + 1)]


class TestRingOps:
    def test_mul_monomials(self):
        z = series([0.0, 1.0], 8)
        z2 = series_mul(z, z)
        assert z2[2] == 1.0
        assert sum(abs(c) for j, c in enumerate(z2) if j != 2) == 0.0

    def test_geometric_series_by_division(self):
        g = series_div(series([0.0, 1.0], 16), series([1.0, -1.0], 16))
        assert tuple(g) == (0.0,) + (1.0,) * 16

    def test_arguments_are_not_modified(self):
        f = series([0.0, 1.0, -2.0, 0.5], 8)
        g = series([1.0, 0.5, 0.25], 8)
        before = f.copy(), g.copy()
        series_mul(f, g)
        series_div(f, g)
        s_transform_of(f)
        moments_from_s(g)
        assert np.array_equal(f, before[0]) and np.array_equal(g, before[1])

    def test_division_by_zero_leading_rejected(self):
        with pytest.raises(ValueError, match="divisor has a zero constant term"):
            series_div(series([1.0], 4), series([0.0], 4))
        with pytest.raises(ValueError, match="divisor has a zero constant term"):
            series_div(series([1.0, 1.0], 4), series([0.0, 1.0], 4))


class TestMomentSeries:
    def test_projection_moments(self):
        # all moments 1/alpha expand lambda / (alpha (1 - lambda))
        m = m_from_moments([1 / 3] * 10, 10)
        z = sympy.symbols("z")
        want = sympy_taylor(z / (3 * (1 - z)), z, 10)
        assert np.max(np.abs(m - np.array(want))) <= 1e-15

    def test_identity_element_moments(self):
        m = m_from_moments([1.0] * 6, 6)
        assert tuple(m) == (0.0,) + (1.0,) * 6

    def test_trailing_zeros_preserved(self):
        m = m_from_moments([0.5, 0.0, 0.0], 6)
        assert tuple(m) == (0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestSTransform:
    def test_projection_block(self):
        # moments 1/2 -> S(z) = 2 (1+z) / (1 + 2z) = 2 - 2z + 4z^2 - 8z^3 ...
        s = s_transform_of(m_from_moments([0.5] * 16, 16))
        assert np.max(np.abs(s[:5] - np.array([2.0, -2.0, 4.0, -8.0, 16.0]))) <= 1e-12

    def test_identity_element_has_unit_s(self):
        s = s_transform_of(m_from_moments([1.0] * 16, 16))
        assert abs(s[0] - 1.0) <= 1e-12
        assert np.max(np.abs(s[1:])) <= 1e-11

    def test_zero_first_moment_rejected(self):
        with pytest.raises(ValueError, match="S-transform requires a nonzero first moment"):
            s_transform_of(m_from_moments([0.0, 1.0], 8))

    def test_round_trip_with_moments_from_s(self):
        moments = [0.5, 0.4, 0.35, 0.3, 0.28, 0.25, 0.2, 0.18]
        s = s_transform_of(m_from_moments(moments, 8))
        back = moments_from_s(s)
        assert np.max(np.abs(np.array(back) - np.array(moments))) <= 1e-10


class TestMomentsFromS:
    def test_single_factor_first_moments(self):
        # S(z) = (z + 2)/(1 + z): m1 = 1/2, m2 = 3/8 (hand inversion)
        s = rational_series([2.0, 1.0], [1.0, 1.0], 8)
        m = moments_from_s(s)
        assert m[0] == pytest.approx(0.5, abs=1e-12)
        assert m[1] == pytest.approx(3 / 8, abs=1e-12)

    def test_unit_s_gives_unit_moments(self):
        m = moments_from_s(series([1.0], 8))
        assert np.max(np.abs(np.array(m) - 1.0)) <= 1e-11

    def test_first_moment_is_reciprocal_alpha_product(self):
        for alphas in [(2.0,), (2.0, 2.0), (3.0, 1.5), (2.0, 1.5, 1.25)]:
            m = moments_from_s(theorem_s_series(alphas, 8))
            assert m[0] == pytest.approx(1 / np.prod(alphas), abs=1e-12)

    def test_matches_exact_rational_moments(self):
        # 16 moments against sympy's exact reversion in QQ; the steep
        # alpha = 1.01 laws are the hardest
        for k in (1, 2):
            for alphas in itertools.product([1.01, 1.5, 2.0, 3.0], repeat=k):
                got = np.array(moments_from_s(theorem_s_series(alphas, 15)))
                want = np.array([float(m) for m in exact_moments(alphas, 16)])
                assert np.max(np.abs(got - want) / want) <= 2e-13, alphas


class TestProductAndScalingIdentities:
    def test_single_factor_product(self):
        # k=1: block for the minimal dimension enters twice
        z = sympy.symbols("z")
        want = sympy_taylor((2 * (1 + z) / (1 + 2 * z)) ** 2, z, 12)
        got = product_s_check([2.0], 12)
        assert np.max(np.abs(got - np.array(want))) <= 1e-11

    def test_unit_alphas_give_unit_series(self):
        got = product_s_check([1.0, 1.0], 12)
        assert abs(got[0] - 1.0) <= 1e-13
        assert np.max(np.abs(got[1:])) <= 1e-13

    def test_product_matches_symbolic_oracle(self):
        z = sympy.symbols("z")
        a1, a2 = sympy.Rational(2), sympy.Rational(3, 2)
        expr = (a1 * (1 + z) / (1 + a1 * z)) ** 2 * (a2 * (1 + z) / (1 + a2 * z))
        want = sympy_taylor(expr, z, 12)
        got = product_s_check([2.0, 1.5], 12)
        assert np.max(np.abs(got - np.array(want))) <= 1e-11

    def test_scaled_single_factor_hand_expansion(self):
        # (z + 2)/(1 + z) = 2 - z + z^2 - z^3 ...
        got = scaled_s_check([2.0], 12)
        want = [2.0] + [(-1.0) ** j for j in range(1, 13)]
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_scaled_equal_alpha_power_form(self):
        z = sympy.symbols("z")
        want = sympy_taylor(((z + 2) / (1 + z)) ** 2, z, 12)
        got = scaled_s_check([2.0, 2.0], 12)
        assert np.max(np.abs(got - np.array(want))) <= 1e-11

    def test_constant_term_is_alpha_product(self):
        got = scaled_s_check([2.0, 1.5, 1.25], 12)
        assert got[0] == pytest.approx(2.0 * 1.5 * 1.25, rel=1e-12)

    def test_pipeline_matches_closed_form_on_grid(self):
        values = [1.25, 1.5, 2.0, 3.0]
        for k in range(1, 5):
            for alphas in itertools.product(values, repeat=k):
                closed = theorem_s_series(alphas, 12)
                piped = scaled_s_check(alphas, 12)
                assert np.max(np.abs(closed - piped)) <= 1e-11, alphas


class TestCrossModuleMoments:
    def test_radial_moments_match_s_substitution(self):
        # substituting w = F(t) - 1 turns the radial moment integral into
        # int_{-1}^0 S(w)^{-p} dw; both sides computed by quadrature
        for alphas in [(2.0,), (2.0, 1.5)]:
            law = RadialLaw(alphas)
            for p in range(1, 7):
                lhs, _ = quad(
                    lambda t: 2 * p * t ** (2 * p - 1) * (1 - limit_law.cdf_many(law, t)),
                    0.0,
                    law.support_radius,
                    limit=200,
                )
                rhs, _ = quad(
                    lambda w: s_eval(law, w) ** -p, -1 + 1e-12, 0, limit=200
                )
                assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_radial_moments_match_uniform_representation(self):
        # equal alpha: squared radius is (U/(alpha-1+U))^k for uniform U,
        # an oracle entirely independent of the S-transform machinery
        for alpha, k in [(2.0, 1), (2.0, 2), (1.5, 3)]:
            law = RadialLaw((alpha,) * k)
            for p in range(1, 5):
                lhs, _ = quad(
                    lambda t: 2 * p * t ** (2 * p - 1) * (1 - limit_law.cdf_many(law, t)),
                    0.0,
                    law.support_radius,
                    limit=200,
                )
                rhs, _ = quad(
                    lambda u: (u / (alpha - 1 + u)) ** (k * p), 0.0, 1.0, limit=200
                )
                assert lhs == pytest.approx(rhs, abs=1e-6)

