"""The public surface: szbov exports exactly its modules' ``__all__`` lists."""

import inspect

import szbov
from szbov import action, dynamics, fields, geometry, loops, solver

MODULES = (geometry, loops, fields, action, dynamics, solver)

PUBLIC = {
    # geometry
    "DomainError", "WindingError", "WindingReport", "birkhoff_derivative", "birkhoff_map",
    "conformal_weight", "involution", "winding", "winding_report",
    # loops
    "EPS_COLLISION", "EPS_ZHAT", "DegenerateLoopError", "DiscreteLoop", "LiftError", "LoopError",
    "PhysicalLoop", "TimeMap", "chain_rule_state", "derivative", "double_cover", "eval_loop", "lift",
    "load_loop", "loop_from_dict", "loop_to_dict", "reconstruct", "save_loop", "second_derivative",
    "time_map", "zhat",
    # fields
    "ElectricSpec", "FieldConfig", "FieldConfigError", "MagneticSpec", "ValidationReport",
    "config_from_dict", "config_to_dict", "electric_preset", "magnetic_preset", "preset", "validate",
    # action
    "ActionBreakdown", "DelayResidual", "component_gradients", "delay_residual", "eval_action",
    "eval_components", "eval_unregularized", "grad_norm", "gradient", "pack", "unpack",
    # dynamics
    "PhiProfile", "SingularityError", "Trajectory", "VerificationReport", "integrate",
    "newtonian_rhs", "phi_profile", "verify_generalized",
    # solver
    "NoConvergenceError", "OrbitRecord", "SolveError", "SolveOptions", "continue_family",
    "make_seed", "record_from_dict", "seed_circle", "seed_ejection", "seed_ellipse_lift",
    "seed_kepler_guess", "solve",
}


def test_the_package_exports_the_public_names():
    assert len(PUBLIC) == 72
    assert len(szbov.__all__) == len(set(szbov.__all__))
    assert set(szbov.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(szbov, name), name


def test_each_listed_name_is_exported_from_its_own_module():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(szbov, name) is obj, (module.__name__, name)
            # a class or function is defined where it is listed, not re-listed
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)


def test_no_two_modules_list_one_name():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(szbov.__all__)
