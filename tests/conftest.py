import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from feynpath import (
    CMElement,
    PiecewisePoly,
    SuppElement,
    build_profile,
)


def pp(coeffs, T=1.0):
    return PiecewisePoly.from_coeffs(coeffs, T)


def indicator_element(t, profile):
    """The element whose density is the indicator of [0, t]."""
    return CMElement(PiecewisePoly.indicator(t, profile.T), profile)


@pytest.fixture
def wiener():
    """a = 0, b(t) = t on [0, 1]."""
    return build_profile(pp([0.0]), pp([1.0]), 1.0)


@pytest.fixture
def standard():
    """a'(t) = t, b'(t) = 1 + t on [0, 1]."""
    return build_profile(pp([0.0, 1.0]), pp([1.0, 1.0]), 1.0)


@pytest.fixture
def std_elements(standard):
    """The standard test triple: D(theta) = 1, D(k1) = 1, D(k2) = t."""
    theta = CMElement(pp([1.0]), standard)
    k1 = SuppElement(pp([1.0]), standard)
    k2 = SuppElement(pp([0.0, 1.0]), standard)
    return theta, k1, k2


def random_poly(rng, T=1.0, max_pieces=3, max_degree=3, scale=1.0):
    """Random piecewise polynomial with interior breakpoints."""
    n_pieces = rng.integers(1, max_pieces + 1)
    cuts = np.sort(rng.uniform(0.05, 0.95, size=n_pieces - 1))
    bp = np.concatenate([[0.0], cuts * T, [T]])
    coeffs = [
        rng.uniform(-scale, scale, size=rng.integers(1, max_degree + 2))
        for _ in range(n_pieces)
    ]
    return PiecewisePoly(bp, coeffs)


def random_nonvanishing_poly(rng, T=1.0, max_degree=2):
    """Density with no identically-zero piece (admissible kernel): a
    nonzero constant term plus small higher-order jitter."""
    c0 = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
    rest = rng.uniform(-0.2, 0.2, size=rng.integers(0, max_degree + 1))
    return PiecewisePoly.from_coeffs(np.concatenate([[c0], rest]), T)
