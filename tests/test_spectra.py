import numpy as np
import pytest
import sympy

from haarprod import AspectConfig
from haarprod.haar import product_chain, substream
from haarprod.pipeline import collect_sample
from haarprod.spectra import eigenvalues, polar


def sorted_by_angle_then_mod(vals):
    return np.sort_complex(np.asarray(vals, dtype=complex))


class TestEigenvalues:
    def test_diagonal(self):
        got = eigenvalues(np.diag([1.0, 1j, -2.0]).astype(complex))
        want = np.array([1.0, 1j, -2.0])
        assert np.max(np.abs(sorted_by_angle_then_mod(got) - sorted_by_angle_then_mod(want))) <= 1e-13

    def test_nilpotent_jordan_block(self):
        got = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert np.max(np.abs(got)) <= 1e-12

    def test_companion_matrix_roots(self):
        # roots of z^3 - 6 z^2 + 11 z - 6, via an independent symbolic solver
        z = sympy.symbols("z")
        want = sorted(
            (complex(r) for r in sympy.roots(z**3 - 6 * z**2 + 11 * z - 6)),
            key=lambda x: x.real,
        )
        comp = np.array(
            [[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex
        )
        got = sorted(eigenvalues(comp), key=lambda x: x.real)
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3), dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 0.0]], dtype=complex))


class TestCollectSample:
    def test_haar_spectrum_on_unit_circle(self):
        cfg = AspectConfig(n=16, dims=(16, 16), trials=1, master_seed=0)
        eigs = collect_sample(cfg)
        assert len(eigs) == 16
        assert np.max(np.abs(np.abs(eigs) - 1.0)) <= 1e-10

    def test_sample_size_counts_trials(self):
        cfg = AspectConfig(n=12, dims=(6, 8, 6), trials=2, master_seed=1)
        eigs = collect_sample(cfg)
        assert len(eigs) == 12

    def test_radii_angles_consistent(self):
        cfg = AspectConfig(n=12, dims=(6, 8, 6), trials=3, master_seed=2)
        eigs = collect_sample(cfg)
        radii, angles = polar(eigs)
        recon = radii * np.exp(1j * angles)
        # clipping may move a radius by <= 1e-8; away from that, exact
        assert np.max(np.abs(recon - eigs)) <= 1e-8
        assert np.all(angles >= 0) and np.all(angles < 2 * np.pi)
        assert np.all(radii <= 1.0)

    def test_derived_from_eigenvalues_alone(self):
        # np.angle(-0-0j) is -pi, which np.mod alone would turn into pi
        radii, angles = polar(np.array([0.0, 1j, -1.0 - 1e-12, complex(-0.0, -0.0)]))
        assert np.array_equal(radii, [0.0, 1.0, 1.0, 0.0])
        assert np.allclose(angles, [0.0, np.pi / 2, np.pi, 0.0], rtol=0, atol=1e-15)

    def test_support_confinement_pilot(self):
        # support radius is 1/sqrt(2) at alpha=2, k=1; finite-size overshoot
        # stays within the calibrated 0.06 margin
        cfg = AspectConfig(n=400, dims=(200, 200), trials=1, master_seed=3)
        radii, _ = polar(collect_sample(cfg))
        assert radii.max() <= 2**-0.5 + 0.06


class TestSpectralInvariants:
    @pytest.fixture()
    def draw(self):
        cfg = AspectConfig(n=16, dims=(8, 12, 8), master_seed=4)
        return product_chain(cfg)

    def test_spectral_radius_below_operator_norm(self, draw):
        eigs = eigenvalues(draw)
        opnorm = np.linalg.svd(draw, compute_uv=False).max()
        assert np.max(np.abs(eigs)) <= opnorm + 1e-8

    def test_trace_preserved(self, draw):
        eigs = eigenvalues(draw)
        n1 = draw.shape[0]
        norm = np.linalg.svd(draw, compute_uv=False).max()
        assert abs(eigs.sum() - np.trace(draw)) <= 1e-9 * n1 * max(norm, 1e-30)

    def test_determinant_preserved(self):
        cfg = AspectConfig(n=16, dims=(8, 8), master_seed=5)
        b = product_chain(cfg)
        eigs = eigenvalues(b)
        det = abs(np.linalg.det(b))
        assert abs(np.prod(np.abs(eigs)) - det) <= 1e-6 * det
