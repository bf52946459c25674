"""Effective sample size of one Markov chain.

Geyer's initial positive sequence estimator (Statistical Science 7(4), 1992)
over an FFT autocorrelation.
"""

from __future__ import annotations

import numpy as np


def effective_sample_size(chain) -> float:
    """ESS = n / tau with tau = -1 + 2 * sum of the leading positive pair sums
    Gamma_k = rho(2k) + rho(2k + 1) of the autocorrelation rho.

    A constant chain carries no information about its spread; it gets ESS 1.
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    if n < 2:
        return float(n)
    x = x - x.mean()
    spectrum = np.fft.rfft(x, 2 * n)  # zero padding turns the circular product linear
    acov = np.fft.irfft(spectrum * np.conj(spectrum), 2 * n)[:n]
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    k = nonpositive[0] if nonpositive.size else pairs.size
    tau = 2.0 * float(pairs[:k].sum()) - 1.0
    return n / max(tau, 1.0 / n)
