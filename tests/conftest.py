import numpy as np
import pytest

from szbov import DiscreteLoop, seed_ejection


def random_smooth_loop(
    rng,
    n: int,
    twisted: bool = False,
    center: complex = 1.9 + 0.4j,
    scale: float = 0.2,
    bandwidth: int = 3,
) -> DiscreteLoop:
    """Band-limited random loop kept away from the origin and the branch
    points, suitable for identities that assume a resolved collision-free
    curve.

    A plain loop is ``center`` plus harmonics |k| <= bandwidth.  A twisted
    loop is z = exp(g) with g antiperiodic, so that z(tau + 1) = 1/z(tau):
    g is 1.2 exp(i pi tau) plus the odd half-harmonics |k| <= bandwidth of
    size 0.75 * scale, which keep |g| near 1.2, away from 0 and i pi, so z
    avoids +-1 (``center`` is not used)."""
    tau = np.arange(n) / n
    if twisted:
        k = np.arange(-bandwidth, bandwidth + 1)
        k = k[k % 2 == 1]
        coef = 0.75 * scale * (rng.normal(0, 1, len(k)) + 1j * rng.normal(0, 1, len(k)))
        g = 1.2 * np.exp(1j * np.pi * tau) + np.exp(1j * np.pi * np.outer(tau, k)) @ coef
        return DiscreteLoop(samples=np.exp(g), twisted=True)
    k = np.arange(-bandwidth, bandwidth + 1)
    coef = scale * (rng.normal(0, 1, len(k)) + 1j * rng.normal(0, 1, len(k)))
    z = center + sum(c * np.exp(2j * np.pi * kk * tau) for c, kk in zip(coef, k))
    return DiscreteLoop(samples=z)


def random_real_loop(rng, n: int, twisted: bool) -> DiscreteLoop:
    """A random loop on the real line: a plain one about 1.9, or the
    ejection seed, which is twisted, times exp(g) with g real and
    antiperiodic, so that z(tau + 1) = 1/z(tau) still holds."""
    tau = np.arange(n) / n
    if twisted:
        k = np.array([1, 3, 5])
        g = rng.normal(0, 0.05, 3) @ np.cos(np.pi * np.outer(k, tau))
        g += rng.normal(0, 0.05, 3) @ np.sin(np.pi * np.outer(k, tau))
        return DiscreteLoop(seed_ejection(-1, n).samples * np.exp(g), twisted=True)
    k = np.arange(1, 4)
    z = 1.9 + rng.normal(0, 0.1, 3) @ np.cos(2 * np.pi * np.outer(k, tau))
    z += rng.normal(0, 0.1, 3) @ np.sin(2 * np.pi * np.outer(k, tau))
    return DiscreteLoop(z.astype(complex))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def solve_sizes(monkeypatch):
    """A list that records the size of every square system handed to
    ``np.linalg.solve`` while the test runs."""
    sizes = []
    solve = np.linalg.solve

    def recorded(a, b):
        sizes.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    return sizes
