"""gbflab: feedback coding laboratory for two-user Gaussian channels with
correlated receiver noises."""

import importlib

__version__ = "0.1.0"

# Each public name and its defining module.  A name loads its module on first
# use and is then stored here (PEP 562), so `import gbflab` loads neither numpy
# nor any submodule, and a process loads only the modules it uses.
_HOME = {
    **dict.fromkeys((
        "AsymptoticsReport", "AsymptoticsRow", "ErrorState", "FixedPoint",
        "PrelogClass", "PrelogValue", "RatePoint", "SweepRow", "achievable_rates",
        "gamma", "prelog_classify", "rho_recursion", "single_user_bound",
        "solve_fixed_point", "solve_gap", "step_error_state", "sweep_rates",
        "verify_asymptotics",
    ), "analysis"),
    **dict.fromkeys((
        "ChannelParams", "NoiseSpec", "RngSpec", "make_generator", "sample_noise_pair",
    ), "channel"),
    **dict.fromkeys((
        "DegenerateMessageError", "GbflabError", "NoFixedPointError",
        "NumericalIntegrityError", "ParameterError", "UnsupportedConfigurationError",
    ), "errors"),
    **dict.fromkeys((
        "CoefficientSchedule", "McSummary", "MessageConfig", "TrialRecord",
        "level_count", "lmmse_coefficient_schedule", "message_point_variance",
        "run_broadcast_campaign", "run_broadcast_trial", "run_interference_trial",
        "run_limited_feedback_trial",
    ), "simulate"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    if name in _HOME.values():  # `gbflab.analysis` without importing it first
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
