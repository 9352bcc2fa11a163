"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavy Monte-Carlo inputs (the equal-alpha convergence study over ten
seeds and the unequal-alpha run) are computed once per session and shared.

The limit law is a statement about m -> infinity; at the suite's sizes a
correct sampler still sits measurably off it (2.3% of the spectrum lies
outside the limit support at m = 600).  Criteria 4 and 7 therefore judge
the Monte Carlo against the exact finite-n law coded below, which imports
nothing from haarprod, and check the finite-size gap to the limit law
separately.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import betainc, roots_jacobi
from scipy.stats import unitary_group

from haarprod import AspectConfig
from haarprod.haar import haar_unitary, product_chain, substream, trace_moment
from haarprod.limit_law import RadialLaw, cdf_many, exact_sample, quantile
from haarprod.pipeline import collect_sample
from haarprod.series import moments_from_s, scaled_s_check, series, theorem_s_series
from haarprod.stats import ks_angular, ks_radial, ks_radii_against_law, moment_rows, polar
from oracles import cdf_equal_alpha, s_transform_of


# Confidence parameter of the finite-n checks of criteria 4 and 7.
DELTA = 0.001

# Gauss-Jacobi nodes per integrated Beta factor of the finite-n CDF.
JACOBI_ORDER = 64

# Ambient sizes of the equal-alpha study (k = 1, m = n / 2).
STUDY_SIZES = (("large", 1200), ("small", 600))


def verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def dkw_bound(size, delta=DELTA):
    """Massart's DKW bound: P(sup |F_N - F| > eps) <= 2 exp(-2 N eps^2).

    The same eps is Hoeffding's two-sided bound for the mean of N
    independent Bernoulli variables.
    """
    return math.sqrt(math.log(2.0 / delta) / (2.0 * size))


def ks_distance(values, model_cdf):
    """One-sample KS distance of `values` against a vectorised model CDF."""
    x = np.sort(np.asarray(values, dtype=float))
    f = model_cdf(x)
    upper = np.arange(1, len(x) + 1) / len(x)
    return float(max(np.max(upper - f), np.max(f - (upper - 1.0 / len(x)))))


def finite_n_beta_params(n, dims):
    """Beta parameters of the exact finite-n law of the squared moduli.

    The eigenvalue moduli of the product of the n_i x n_{i+1} corners of
    k independent n x n Haar unitaries (n_1 = n_{k+1}) are independent;
    their squares are, as a set, distributed as
    {prod_i B_{i,j} : j = 1..n_1} with independent
    B_{i,j} ~ Beta(j + n_{i+1} - n_1, n - n_{i+1}).  For k = 1 this is
    Beta(j, n - m) (Zyczkowski & Sommers 2000); for products see
    Adhikari, Reddy, Reddy & Saha 2016.  Returns one (a_j array, b) pair
    per factor with n_{i+1} < n; a factor with n_{i+1} = n has b = 0, so
    its B is a point mass at 1 and is left out.
    """
    j = np.arange(1, dims[0] + 1)
    return [(j + d - dims[0], n - d) for d in dims[1:] if d < n]


def product_beta_cdf(factors, s):
    """P(prod_i X_i <= s) for independent X_i ~ Beta(a_i, b_i).

    The last factor is integrated out by Gauss-Jacobi quadrature, so the
    cost grows like JACOBI_ORDER^(k-1).
    """
    a, b = factors[-1]
    if len(factors) == 1:
        return betainc(a, b, np.clip(s, 0.0, 1.0))
    y, w = roots_jacobi(JACOBI_ORDER, b - 1.0, a - 1.0)
    x = (1.0 + y) / 2.0
    inner = product_beta_cdf(factors[:-1], np.minimum(s[..., None] / x, 1.0))
    return inner @ (w / w.sum())


def finite_n_cdf(params):
    """Pooled radial CDF F_n(t) = (1/n_1) sum_j P(prod_i B_{i,j} <= t^2)."""
    def cdf(t):
        s = np.asarray(t, dtype=float) ** 2
        total = np.zeros_like(s)
        for j in range(len(params[0][0])):
            total += product_beta_cdf([(a[j], b) for a, b in params], s)
        return total / len(params[0][0])

    return cdf


def support_radius(n, dims):
    """Limit support radius 1 / sqrt(alpha_1 ... alpha_k)."""
    return math.sqrt(math.prod(d / n for d in dims[1:]))


def edge_mass(n, dims):
    """Exact expected fraction of eigenvalues outside the limit support."""
    return 1.0 - float(finite_n_cdf(finite_n_beta_params(n, dims))(support_radius(n, dims)))


def limit_gap(n, m):
    """sup_t |F_n(t) - F_inf(t)| for k = 1, alpha = n / m, on a fine grid.

    F_inf(t) = (alpha - 1) t^2 / (1 - t^2) up to the edge and 1 beyond,
    where F_n <= 1 differs from it by at most the edge mass; the grid
    therefore stops at the edge and includes it.
    """
    t = np.linspace(0.0, support_radius(n, (m, m)), 4001)
    limit = (n / m - 1.0) * t**2 / (1.0 - t**2)
    return float(np.max(np.abs(finite_n_cdf(finite_n_beta_params(n, (m, m)))(t) - limit)))


def haar_corner_radii(n, dims, trials, rng):
    """Eigenvalue moduli of corner products drawn with scipy's Haar sampler."""
    out = []
    for _ in range(trials):
        b = None
        for p, q in zip(dims[:-1], dims[1:]):
            a = unitary_group.rvs(n, random_state=rng)[:p, :q]
            b = a if b is None else b @ a
        out.append(np.abs(np.linalg.eigvals(b)))
    return np.concatenate(out)


@pytest.mark.parametrize(
    "n, dims, trials",
    [(20, (10, 10), 2000), (18, (6, 12, 6), 3000), (12, (6, 12, 6), 3000)],
    ids=["k1-square", "k2-rectangular", "k2-middle-dim-n"],
)
def test_finite_n_reference_matches_matrix_monte_carlo(n, dims, trials):
    """The finite-n reference that criteria 4 and 7 rely on, against matrices.

    The Monte Carlo uses scipy's Haar sampler, not haarprod.  Shifting the
    second Beta parameter by one (Beta(j, n - m + 1) for k = 1) moves the
    law by several DKW thresholds, so the check has power against it.
    """
    radii = haar_corner_radii(n, dims, trials, np.random.default_rng(2000))
    params = finite_n_beta_params(n, dims)
    shifted = [(a, b + 1) for a, b in params]
    threshold = dkw_bound(len(radii))
    assert ks_distance(radii, finite_n_cdf(params)) <= threshold
    assert ks_distance(radii, finite_n_cdf(shifted)) > 2 * threshold


def test_finite_n_reference_drops_a_full_middle_factor():
    # n = 12, dims 6,12,6: the product is the 6 x 6 corner of U_1 U_2, so the
    # squared moduli are {Beta(j, 6)} and the edge t^2 = 1/2 has a closed form
    exact = 1.0 - np.mean(betainc(np.arange(1, 7), 6, 0.5))
    assert abs(edge_mass(12, (6, 12, 6)) - exact) <= 1e-12


@pytest.fixture(scope="session")
def equal_alpha_study():
    """Radial/angular KS at n=1200 and n=600 (k=1, alpha=2), seeds 0..9."""
    law = RadialLaw((2.0,))
    rows = []
    for seed in range(10):
        entry = {"seed": seed}
        for tag, n in STUDY_SIZES:
            cfg = AspectConfig(n=n, dims=(n // 2, n // 2), trials=20, master_seed=seed)
            sam, _ = collect_sample(cfg)
            entry[tag] = {
                "radial": ks_radial(sam, law).statistic,
                "angular": ks_angular(sam).statistic,
                "radii": polar(sam)[0],
            }
        rows.append(entry)
    return rows


@pytest.fixture(scope="session")
def unequal_alpha_run():
    """n=1800, dims=(900,1200,900): k=2, alphas=(2, 1.5), 10 trials."""
    cfg = AspectConfig(n=1800, dims=(900, 1200, 900), trials=10, master_seed=0)
    law = RadialLaw(cfg.alphas)
    sam, _ = collect_sample(cfg)
    return {"config": cfg, "law": law, "sample": sam, "radial": ks_radial(sam, law).statistic}


def test_criterion_1_series_pipeline():
    t0 = time.perf_counter()
    values = [1.25, 1.5, 2.0, 3.0]
    worst = 0.0
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(values, k):
            alphas = sorted(combo, reverse=True)
            closed = theorem_s_series(alphas, 12)
            piped = scaled_s_check(alphas, 12)
            worst = max(worst, float(np.max(np.abs(closed - piped))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 1.0
    assert verdict(1, ok, f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_closed_form_cross_check():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (1.5, 2.0, 3.0):
        for k in (1, 2, 3):
            law = RadialLaw((alpha,) * k)
            ts = np.linspace(0.0, law.support_radius, 1000)
            generic = cdf_many(law, ts)
            closed = np.array([cdf_equal_alpha(alpha, k, t) for t in ts])
            worst = max(worst, float(np.max(np.abs(generic - closed))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert verdict(2, ok, f"max |generic - closed| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_exact_sampler_law():
    t0 = time.perf_counter()
    z = exact_sample(2.0, 2, 10**6, substream(11, 0))
    rep = ks_radii_against_law(np.abs(z), RadialLaw((2.0, 2.0)), delta=0.001)
    circle = exact_sample(1.0, 2, 10**5, substream(11, 1))
    circle_dev = float(np.max(np.abs(np.abs(circle) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = rep.statistic <= 0.00136 and circle_dev <= 1e-15 and elapsed < 10.0
    assert verdict(
        3, ok, f"KS {rep.statistic:.5f} vs 0.00136, |r-1| {circle_dev:.1e}, {elapsed:.1f}s"
    )


def test_criterion_4_equal_alpha_convergence(equal_alpha_study):
    main = equal_alpha_study[0]["large"]
    direction = sum(
        1 for row in equal_alpha_study if row["small"]["radial"] > row["large"]["radial"]
    )
    finite_ks = ks_distance(main["radii"], finite_n_cdf(finite_n_beta_params(1200, (600, 600))))
    threshold = dkw_bound(len(main["radii"]))
    gap_large, gap_small = limit_gap(1200, 600), limit_gap(600, 300)
    ok = (
        finite_ks <= threshold
        and gap_large < gap_small
        and main["angular"] <= 0.02
        and direction >= 8
    )
    assert verdict(
        4,
        ok,
        f"radial vs limit {main['radial']:.4f}, vs finite-n {finite_ks:.4f} vs {threshold:.4f}, "
        f"d(F_n, F_inf) {gap_large:.4f} < {gap_small:.4f} at m=300, "
        f"angular {main['angular']:.4f} vs 0.02, direction {direction}/10 vs 8",
    )


def test_criterion_5_unequal_alpha_convergence(unequal_alpha_run):
    stat = unequal_alpha_run["radial"]
    ok = stat <= 0.02
    assert verdict(5, ok, f"radial {stat:.4f} vs 0.02")


def test_criterion_6_trace_moments():
    cfg2 = AspectConfig(n=400, dims=(200, 200, 200), master_seed=6)
    mats2 = [product_chain(cfg2, trial=t) for t in range(50)]
    table2 = np.array([trace_moment(b, 2) for b in mats2])
    row_p1 = moment_rows(table2, RadialLaw(cfg2.alphas))[0]

    cfg1 = AspectConfig(n=400, dims=(200, 200), master_seed=7)
    mats1 = [product_chain(cfg1, trial=t) for t in range(50)]
    table1 = np.array([trace_moment(b, 2) for b in mats1])
    row_p2 = moment_rows(table1, RadialLaw(cfg1.alphas))[1]

    ok = (
        row_p1.analytic == pytest.approx(0.25, abs=1e-12)
        and abs(row_p1.z_score) <= 3.0
        and row_p2.analytic == pytest.approx(3 / 8, abs=1e-12)
        and abs(row_p2.z_score) <= 3.0
    )
    assert verdict(
        6,
        ok,
        f"p=1 mean {row_p1.empirical_mean:.5f} vs 1/4 (z={row_p1.z_score:+.2f}), "
        f"p=2 mean {row_p2.empirical_mean:.5f} vs 3/8 (z={row_p2.z_score:+.2f})",
    )


def test_criterion_7_support_confinement(equal_alpha_study, unequal_alpha_run):
    """Edge mass against its exact finite-n expectation.

    The moduli are independent, so the count outside the support is a sum
    of independent Bernoulli variables and Hoeffding's two-sided bound
    applies: a sampler that confines too much fails as well.
    """
    pools = [
        (row[tag]["radii"], (n, (n // 2, n // 2)))
        for row in equal_alpha_study
        for tag, n in STUDY_SIZES
    ]
    cfg = unequal_alpha_run["config"]
    pools.append((polar(unequal_alpha_run["sample"])[0], (cfg.n, cfg.dims)))
    edges = {key: support_radius(*key) for _, key in pools}
    expected = {key: edge_mass(*key) for key in edges}
    worst_excess = max(float(r.max()) - edges[key] for r, key in pools)
    over = sum(int(np.sum(r > edges[key])) for r, key in pools)
    total = sum(len(r) for r, _ in pools)
    frac = over / total
    exp_frac = sum(len(r) * expected[key] for r, key in pools) / total
    bound = dkw_bound(total)
    e600, e300 = expected[1200, (600, 600)], expected[600, (300, 300)]
    ok = worst_excess <= 0.06 and abs(frac - exp_frac) <= bound and e600 < e300
    assert verdict(
        7,
        ok,
        f"max excess {worst_excess:.4f} vs 0.06, fraction over {frac:.5f} vs "
        f"E_n {exp_frac:.5f} +- {bound:.5f}, E_n {e600:.4f} at m=600 < {e300:.4f} at m=300",
    )


def test_criterion_8_property_suites():
    checks = {}

    u = haar_unitary(64, substream(20, 0), 64)
    checks["unitarity"] = float(np.max(np.abs(u @ u.conj().T - np.eye(64)))) <= 1e-12 * 64

    cfg = AspectConfig(n=24, dims=(12, 18, 12), master_seed=21)
    b = product_chain(cfg)
    checks["contraction"] = float(np.linalg.svd(b, compute_uv=False).max()) <= 1 + 1e-10
    checks["determinism"] = np.array_equal(b, product_chain(cfg))

    # f is read as a moment series: exact moments -> S, then the package's S -> moments
    rng = np.random.default_rng(22)
    resid = 0.0
    for _ in range(20):
        f = series([0.0, 1.0] + list(rng.uniform(-0.25, 0.25, 15)), 16)
        resid = max(resid, float(np.max(np.abs(moments_from_s(s_transform_of(f)) - f[1:]))))
    checks["series round-trip"] = resid <= 1e-11

    law = RadialLaw((2.0, 1.5))
    ts = np.linspace(0.0, law.support_radius, 400)
    vals = cdf_many(law, ts)
    checks["cdf monotone"] = bool(np.all(np.diff(vals) >= 0))
    checks["cdf normalized"] = vals[0] == 0.0 and vals[-1] == 1.0
    ps = np.linspace(0.01, 1.0, 100)
    checks["quantile-cdf identity"] = bool(
        np.all(np.abs(cdf_many(law, quantile(law, ps)) - ps) <= 1e-11)
    )

    ok = all(checks.values())
    failing = [name for name, good in checks.items() if not good]
    assert verdict(8, ok, "all invariants" if ok else f"failing: {failing}")
