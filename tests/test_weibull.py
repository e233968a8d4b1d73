"""Weibull mixtures and the piecewise duration model."""

import numpy as np
import pytest
from scipy import stats

from gridres import DurationModel, WeibullMixture

from conftest import REFERENCE_P13, reference_mixture, reference_model, sample_mixture


def scipy_mixture_cdf(components, x):
    """Independent route: scipy's weibull_min, weighted by hand."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, scale, shape in components:
        out = out + w * stats.weibull_min.cdf(x, shape, scale=scale)
    return out


def test_weight_sum_validation():
    with pytest.raises(ValueError):
        WeibullMixture(components=((0.5, 1.0, 1.0), (0.4, 2.0, 1.0)))
    with pytest.raises(ValueError):
        WeibullMixture(components=((1.0, -1.0, 1.0),))
    with pytest.raises(ValueError):
        WeibullMixture(components=((1.0, 1.0, 0.0),))
    with pytest.raises(ValueError):
        WeibullMixture(components=())
    # within 1e-9 is accepted
    WeibullMixture(components=((0.5 + 4e-10, 1.0, 1.0), (0.5, 2.0, 1.0)))


def test_exponential_special_case():
    # k=1 collapses to an exponential with the scale as its mean
    m = WeibullMixture(components=((1.0, 2.0, 1.0),))
    assert m.cdf(2.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert m.mean() == pytest.approx(2.0)
    assert m.pdf(0.0) == pytest.approx(0.5)


def test_pdf_at_zero_conventions():
    infant = WeibullMixture(components=((0.5, 1.0, 0.6), (0.5, 2.0, 3.0)))
    assert np.isinf(infant.pdf(0.0))
    aging = WeibullMixture(components=((1.0, 5.0, 2.5),))
    assert aging.pdf(0.0) == 0.0


def test_cdf_bounds_and_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(1, 5)
        w = rng.dirichlet(np.ones(n))
        comps = tuple(
            (float(w[i]), float(rng.uniform(0.3, 120.0)), float(rng.uniform(0.2, 9.0)))
            for i in range(n)
        )
        m = WeibullMixture(components=comps)
        x = np.linspace(0.0, 800.0, 400)
        c = m.cdf(x)
        assert c[0] == 0.0
        assert np.all(np.diff(c) >= -1e-15)
        assert np.all((c >= 0.0) & (c <= 1.0))
        assert m.cdf(1e7) == pytest.approx(1.0)
        np.testing.assert_allclose(m.sf(x), 1.0 - c, atol=1e-12)


def test_cdf_pdf_match_scipy_route():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = rng.integers(1, 4)
        w = rng.dirichlet(np.ones(n))
        comps = tuple(
            (float(w[i]), float(rng.uniform(0.5, 60.0)), float(rng.uniform(0.4, 6.0)))
            for i in range(n)
        )
        m = WeibullMixture(components=comps)
        x = np.linspace(0.01, 200.0, 97)
        np.testing.assert_allclose(m.cdf(x), scipy_mixture_cdf(comps, x), atol=1e-12)
        ref_pdf = sum(
            w_ * stats.weibull_min.pdf(x, k_, scale=g_) for w_, g_, k_ in comps
        )
        np.testing.assert_allclose(m.pdf(x), ref_pdf, atol=1e-12)


def test_pdf_integrates_to_cdf():
    m = reference_mixture(3)
    grid = np.linspace(0.0, 180.0, 120_001)
    mass = np.trapezoid(m.pdf(grid), grid)
    assert mass == pytest.approx(m.cdf(180.0), abs=1e-5)


@pytest.mark.parametrize("idx", range(5))
def test_reference_short_duration_fractions(idx):
    """Frozen published fractions below 13 hours for the five interval fits."""
    m = reference_mixture(idx)
    assert m.cdf(13.0) == pytest.approx(REFERENCE_P13[idx], abs=5e-3)


def test_quantile_roundtrip():
    m = reference_mixture(0)
    for q in (0.01, 0.1, 0.5, 0.9, 0.99):
        x = m.quantile(q)
        assert m.cdf(x) == pytest.approx(q, abs=1e-9)
    with pytest.raises(ValueError):
        m.quantile(0.0)
    with pytest.raises(ValueError):
        m.quantile(1.0)


def test_mean_matches_scipy():
    comps = ((0.3, 4.0, 0.8), (0.7, 30.0, 2.2))
    m = WeibullMixture(components=comps)
    ref = sum(w * stats.weibull_min.mean(k, scale=g) for w, g, k in comps)
    assert m.mean() == pytest.approx(ref, rel=1e-12)


def test_sampling_matches_distribution():
    m = WeibullMixture(components=((0.4, 2.0, 0.7), (0.6, 25.0, 3.0)))
    rng = np.random.default_rng(5)
    draws = sample_mixture(m, 4000, rng)
    assert np.all(draws > 0.0)
    res = stats.kstest(draws, m.cdf)
    assert res.pvalue > 1e-3
    assert draws.mean() == pytest.approx(m.mean(), rel=0.06)


def test_single_component_sampling_inverse_cdf():
    # degenerate weights route every draw through one component
    m = WeibullMixture(components=((1.0, 2.0, 1.0),))
    rng = np.random.default_rng(9)
    d = sample_mixture(m, 100_000, rng)
    assert d.mean() == pytest.approx(2.0, rel=0.01)


class TestDurationModel:
    def test_validation(self):
        g = reference_mixture(0)
        with pytest.raises(ValueError):
            DurationModel(boundaries=(0.0,), mixtures=(g,))
        with pytest.raises(ValueError):
            DurationModel(boundaries=(0.0, 5.0, 3.0), mixtures=(g, g))
        with pytest.raises(ValueError):
            DurationModel(boundaries=(0.0, 5.0), mixtures=(g, g))

    def test_interval_index(self, ref_model):
        assert ref_model.interval_index(0.0) == 0
        assert ref_model.interval_index(11.99) == 0
        assert ref_model.interval_index(12.0) == 1
        assert ref_model.interval_index(36.0) == 4
        assert ref_model.interval_index(44.9) == 4
        # nearest tail policy clamps outside the partition
        assert ref_model.interval_index(45.0) == 4
        assert ref_model.interval_index(1e4) == 4
        assert ref_model.interval_index(-3.0) == 0

    def test_cdf_routes_to_interval(self, ref_model):
        for t, idx in ((3.0, 0), (25.0, 2), (40.0, 4), (77.0, 4)):
            want = reference_mixture(idx).cdf(13.0)
            assert ref_model.cdf(13.0, at=t) == pytest.approx(want, abs=1e-12)

    def test_elementwise_evaluation(self, ref_model):
        d = np.array([13.0, 13.0, 13.0])
        at = np.array([3.0, 25.0, 40.0])
        got = ref_model.cdf(d, at=at)
        want = [reference_mixture(i).cdf(13.0) for i in (0, 2, 4)]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_collapse_is_weighted_sum(self, ref_model):
        w = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        pooled = ref_model.collapse(w)
        x = np.linspace(0.0, 300.0, 97)
        want = sum(
            wi * reference_mixture(i).cdf(x) for i, wi in enumerate(w)
        )
        np.testing.assert_allclose(pooled.cdf(x), want, atol=1e-12)

    def test_collapse_validation(self, ref_model):
        with pytest.raises(ValueError):
            ref_model.collapse([0.5, 0.5])
        with pytest.raises(ValueError):
            ref_model.collapse([0.2, 0.2, 0.2, 0.2, 0.3])

    def test_stationary_factory(self):
        g = reference_mixture(1)
        m = DurationModel.stationary(g, horizon=50.0)
        assert m.is_stationary
        assert m.interval_index(49.0) == 0
        assert m.cdf(13.0, at=26.0) == pytest.approx(g.cdf(13.0))
        assert not reference_model().is_stationary
