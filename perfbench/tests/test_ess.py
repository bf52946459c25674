import numpy as np
import pytest

from ess import effective_sample_size


def ar1(rho, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=n) * np.sqrt(1.0 - rho**2)
    x = np.empty(n)
    x[0] = rng.normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ar1_matches_closed_form(rho):
    n = 200_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    estimates = [effective_sample_size(ar1(rho, n, seed)) for seed in range(3)]
    assert np.mean(estimates) == pytest.approx(expected, rel=0.05)


def test_independent_draws_give_about_n():
    x = np.random.default_rng(0).normal(size=50_000)
    assert effective_sample_size(x) == pytest.approx(50_000, rel=0.05)


def test_constant_chain_counts_once():
    assert effective_sample_size(np.full(100, 0.3)) == 1.0
