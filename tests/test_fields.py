import dataclasses

import numpy as np
import pytest

from szbov import (
    FieldConfig,
    FieldConfigError,
    config_from_dict,
    config_to_dict,
    electric_preset,
    magnetic_preset,
    preset,
    validate,
)


class TestPresets:
    def test_zero_preset_is_autonomous(self):
        cfg = preset("zero", mu=0.3)
        assert cfg.mu == 0.3
        assert cfg.electric.is_zero

    def test_constant_magnetic_field_value(self):
        cfg = preset("constant", mu=0.5, b=2.0)
        q = np.array([0.3 + 0.1j, -1.5 + 0j])
        np.testing.assert_allclose(cfg.magnetic.field_at(q), 2.0)

    def test_oscillating_field_breaks_autonomy(self):
        cfg = preset("uniform_oscillating", mu=0.5, epsilon=0.1)
        assert not cfg.electric.is_zero

    def test_oscillating_field_is_time_periodic(self):
        ele = electric_preset("uniform_oscillating", epsilon=0.1)
        q = np.array([0.5 + 0.2j])
        for t in (0.0, 0.31, 0.77):
            np.testing.assert_allclose(
                ele.e(np.array([t]), q), ele.e(np.array([t + 1.0]), q), rtol=1e-12
            )

    def test_rotating_charge_is_time_periodic(self):
        ele = electric_preset("rotating_charge", mu_s=0.01, r_s=3.0, k=2)
        q = np.array([0.5 + 0.2j])
        np.testing.assert_allclose(
            ele.e(np.array([0.2]), q), ele.e(np.array([1.2]), q), rtol=1e-12
        )

    @pytest.mark.parametrize(
        "spec",
        [
            electric_preset("uniform_oscillating", epsilon=0.3, d=0.5 + 0.2j),
            electric_preset("rotating_charge", mu_s=0.1, r_s=3.0, k=2, theta0=0.3),
        ],
        ids=["oscillating", "rotating"],
    )
    def test_closed_form_second_derivatives(self, spec):
        # the central-difference fallback converges to the closed forms as h^2
        rng = np.random.default_rng(0)
        q = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        t = rng.uniform(0, 1, 50)
        exact = spec.hess(t, q)
        fallback = dataclasses.replace(spec, hess_fn=None)
        for h in (1e-3, 5e-4):
            errors = [np.max(np.abs(a - b)) for a, b in zip(exact, fallback.hess(t, q, h))]
            scales = [max(np.max(np.abs(a)), 1.0) for a in exact]
            assert max(e / s for e, s in zip(errors, scales)) <= 2e-2 * h / 1e-3
        assert max(np.max(np.abs(a - b)) / s for a, b, s in zip(exact, fallback.hess(t, q), scales)) <= 1e-6

    def test_linear_gauges_have_zero_second_derivatives(self):
        q = np.array([0.3 + 0.1j, -1.5 + 0.2j])
        for spec in (magnetic_preset("zero"), magnetic_preset("constant", b=2.0)):
            assert spec.is_zero == (spec.kind == "zero")
            for d in spec.gauge_hess_at(q):
                np.testing.assert_array_equal(d, 0.0)
            fallback = dataclasses.replace(spec, gauge_jac_fn=None, gauge_hess_fn=None)
            for d in fallback.gauge_hess_at(q):
                np.testing.assert_allclose(d, 0.0, atol=1e-7)

    def test_unknown_parameters_rejected(self):
        with pytest.raises(FieldConfigError):
            magnetic_preset("constant", b=1.0, frequency=3.0)
        with pytest.raises(FieldConfigError):
            electric_preset("uniform_oscillating", eps=0.1)
        with pytest.raises(FieldConfigError):
            preset("nonsense")

    @pytest.mark.parametrize("k", [1.5, 2.0, True])
    def test_rotating_charge_frequency_read_as_given(self, k):
        # not truncated: k = 1.5 would run as k = 1, whose potential is
        # 1-periodic where the one asked for is not
        with pytest.raises(FieldConfigError, match="k must be an integer"):
            electric_preset("rotating_charge", mu_s=0.01, r_s=3.0, k=k)
        with pytest.raises(FieldConfigError, match="k must be an integer"):
            config_from_dict({"mu": 0.5, "electric": {"kind": "rotating_charge", "mu_s": 0.01, "r_s": 3.0, "k": k}})

    def test_zero_presets_reject_parameters(self):
        # like every other preset: a parameter is not dropped without a word
        with pytest.raises(FieldConfigError, match="unknown 'zero' parameters"):
            preset("zero", mu=0.5, epsilon=0.1)
        with pytest.raises(FieldConfigError, match="unknown 'zero' parameters"):
            magnetic_preset("zero", b=3.0)
        with pytest.raises(FieldConfigError, match="unknown 'zero' parameters"):
            electric_preset("zero", epsilon=0.1)
        with pytest.raises(FieldConfigError, match="unknown 'zero' parameters"):
            config_from_dict({"mu": 0.5, "magnetic": {"kind": "zero", "b": 1.0}})

    def test_mass_ratio_bounds(self):
        with pytest.raises((FieldConfigError, ValueError)):
            FieldConfig(
                mu=-0.1,
                magnetic=magnetic_preset("zero"),
                electric=electric_preset("zero"),
            )


class TestValidation:
    @pytest.mark.parametrize(
        "cfg",
        [
            preset("zero", mu=0.5),
            preset("constant", mu=0.5, b=2.0),
            preset("uniform_oscillating", mu=0.5, epsilon=0.1),
            preset("rotating_charge", mu=0.5, mu_s=0.01, r_s=3.0, k=1),
        ],
        ids=["zero", "constant", "oscillating", "rotating"],
    )
    def test_presets_self_consistent(self, cfg):
        report = validate(cfg)
        assert report.ok, str(report)


class TestSerialization:
    def test_round_trip(self):
        cfg = preset("uniform_oscillating", mu=0.25, epsilon=0.01)
        again = config_from_dict(config_to_dict(cfg))
        assert again.mu == cfg.mu
        assert again.electric.kind == "uniform_oscillating"
        q = np.array([0.4 - 0.3j])
        t = np.array([0.37])
        np.testing.assert_allclose(again.electric.e(t, q), cfg.electric.e(t, q))

    @pytest.mark.parametrize("block", [
        {"mu": True},
        {"magnetic": {"kind": "constant", "b": True}},
        {"electric": {"kind": "uniform_oscillating", "epsilon": True}},
        {"electric": {"kind": "uniform_oscillating", "epsilon": 0.1, "d": [True, 0.0]}},
        {"electric": {"kind": "rotating_charge", "mu_s": 0.01, "r_s": True}},
        {"electric": {"kind": "rotating_charge", "mu_s": 0.01, "r_s": 3.0, "theta0": True}},
    ], ids=["mu", "b", "epsilon", "d", "r_s", "theta0"])
    def test_numbers_read_as_given(self, block):
        # not cast: true would run as 1
        with pytest.raises(FieldConfigError, match="must be a number"):
            config_from_dict(block)

    def test_custom_kind_is_not_read(self):
        # a custom spec is made of functions, which JSON does not hold
        for block in ({"magnetic": {"kind": "custom"}}, {"electric": {"kind": "custom"}}):
            with pytest.raises(FieldConfigError, match="custom"):
                config_from_dict(block)

    def test_unknown_keys_rejected(self):
        with pytest.raises(FieldConfigError):
            config_from_dict({"mu": 0.5, "charge": 2})
        with pytest.raises(FieldConfigError):
            config_from_dict({"mu": 0.5, "magnetic": {"kind": "constant", "b": 1, "x": 2}})
        with pytest.raises(FieldConfigError):
            config_from_dict({"mu": 0.5, "electric": {"kind": "banana"}})
