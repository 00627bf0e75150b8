import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szbov import (
    WindingError,
    birkhoff_derivative,
    birkhoff_map,
    conformal_weight,
    involution,
    loop_from_dict,
    winding,
    winding_report,
)
from szbov.loops import EPS_COLLISION

ARCHIVES = Path(__file__).resolve().parents[1] / "perfbench" / "archives"


def circle(center, radius, n=256):
    return center + radius * np.exp(2j * np.pi * np.arange(n) / n)


class TestBirkhoffMap:
    def test_branch_points_are_fixed(self):
        assert birkhoff_map(np.array([1.0 + 0j]))[0] == pytest.approx(1.0)
        assert birkhoff_map(np.array([-1.0 + 0j]))[0] == pytest.approx(-1.0)

    def test_known_value(self):
        # B(2) = (2 + 1/2)/2 = 5/4
        assert birkhoff_map(np.array([2.0 + 0j]))[0] == pytest.approx(1.25)

    def test_invariant_under_involution(self):
        z = np.array([0.3 + 0.7j, 2.0 - 1.0j, -0.2 + 0.1j])
        np.testing.assert_allclose(
            birkhoff_map(z), birkhoff_map(involution(z)), rtol=1e-14
        )

    def test_derivative_matches_finite_difference(self):
        z = np.array([1.4 + 0.6j])
        h = 1e-7
        fd = (birkhoff_map(z + h) - birkhoff_map(z - h)) / (2 * h)
        np.testing.assert_allclose(birkhoff_derivative(z), fd, rtol=1e-7)

    def test_derivative_vanishes_at_branch_points(self):
        d = birkhoff_derivative(np.array([1.0 + 0j, -1.0 + 0j]))
        np.testing.assert_allclose(d, 0.0, atol=1e-15)


class TestConformalWeight:
    def test_closed_form(self):
        # w(z) = |z^2-1|^2 / (4 |z|^2) = |B'(z)|^2 |z|^2
        z = np.array([0.5 + 0.5j, 2.0 + 0j, -1.5 + 0.2j])
        expected = np.abs(z * z - 1.0) ** 2 / (4.0 * np.abs(z) ** 2)
        np.testing.assert_allclose(conformal_weight(z), expected, rtol=1e-14)
        alt = np.abs(birkhoff_derivative(z)) ** 2 * np.abs(z) ** 2
        np.testing.assert_allclose(conformal_weight(z), alt, rtol=1e-13)

    def test_zero_exactly_at_branch_points(self):
        w = conformal_weight(np.array([1.0 + 0j, -1.0 + 0j]))
        np.testing.assert_allclose(w, 0.0, atol=1e-30)


class TestWinding:
    @settings(max_examples=20, deadline=None)
    @given(
        re=st.floats(-2, 2),
        im=st.floats(-2, 2),
        radius=st.floats(0.05, 1.0),
    )
    def test_circle_winds_once_around_interior_points(self, re, im, radius):
        center = complex(re, im)
        samples = circle(center, radius)
        assert winding(samples, center) == 1
        far = center + 10 * radius
        assert winding(samples, far) == 0

    def test_doubled_circle_winds_twice(self):
        tau = np.arange(256) / 256
        samples = 0.5 * np.exp(4j * np.pi * tau)
        assert winding(samples, 0.0) == 2

    def test_orientation(self):
        samples = circle(0.0, 1.0)[::-1]
        assert winding(samples, 0.0) == -1

    def test_report_totals(self):
        rep = winding_report(circle(-1.0, 0.3))
        assert (rep.around_minus_one, rep.around_plus_one, rep.total) == (1, 0, 1)
        rep = winding_report(circle(0.0, 3.0))
        assert (rep.around_minus_one, rep.around_plus_one, rep.total) == (1, 1, 2)

    def test_center_on_curve_rejected(self):
        with pytest.raises(WindingError):
            winding(circle(0.0, 1.0), 1.0, clearance=1e-2)


def assert_report_is_per_center(q, clearance):
    """winding_report against the two one-center windings, about -1 and +1;
    returns those, or None where either raises."""
    try:
        expected = winding(q, -1.0, clearance), winding(q, 1.0, clearance)
    except WindingError:
        expected = None
    if expected is None:
        with pytest.raises(WindingError):
            winding_report(q, clearance)
    else:
        rep = winding_report(q, clearance)
        assert (rep.around_minus_one, rep.around_plus_one) == expected
    return expected


class TestWindingReport:
    # both centers in one pass: the same numbers as the two one-center
    # calls wherever both are defined, and WindingError wherever either is not

    @pytest.mark.parametrize("path", sorted(ARCHIVES.glob("*.json")), ids=lambda p: p.stem)
    def test_archive_equals_the_per_center_windings(self, path):
        z = loop_from_dict(json.loads(path.read_text())["z"])
        assert_report_is_per_center(birkhoff_map(z.samples), EPS_COLLISION)

    def test_random_loops_equal_the_per_center_windings(self):
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(300):
            n = int(rng.integers(3, 48))
            tau = np.arange(n) / n
            k = np.arange(-3, 4)
            coef = rng.uniform(0.2, 1.5) * (rng.normal(size=7) + 1j * rng.normal(size=7)) / 3
            q = rng.uniform(-1.5, 1.5) + np.exp(2j * np.pi * np.outer(tau, k)) @ coef
            # a clearance of 0.1: loops that pass near a center are undefined
            expected = assert_report_is_per_center(q, 0.1)
            outcomes.add(None if expected is None else expected != (0, 0))
        # defined with and without winding, and undefined, all occur
        assert outcomes == {None, True, False}

    @pytest.mark.parametrize("touched", [-1.0, 1.0])
    def test_touching_one_center_raises(self, touched):
        # a circle through one center, clear of the other, whose winding
        # about the other is defined
        q = touched * (1.5 - circle(0.0, 0.5))
        assert q[0] == touched
        assert winding(q, -touched) == 0
        with pytest.raises(WindingError):
            winding(q, touched)
        with pytest.raises(WindingError):
            winding_report(q)


class TestInvolution:
    def test_is_an_involution(self):
        z = np.array([0.3 + 0.7j, 2.0 - 1.0j])
        np.testing.assert_allclose(involution(involution(z)), z, rtol=1e-14)

    def test_unit_circle_fixed_setwise(self):
        z = np.exp(2j * np.pi * np.arange(16) / 16)
        np.testing.assert_allclose(np.abs(involution(z)), 1.0, rtol=1e-14)
