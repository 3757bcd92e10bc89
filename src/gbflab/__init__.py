"""gbflab: feedback coding laboratory for two-user Gaussian channels with
correlated receiver noises."""

from .analysis import (
    AsymptoticsReport,
    AsymptoticsRow,
    ErrorState,
    FixedPoint,
    PrelogClass,
    PrelogValue,
    RatePoint,
    SweepRow,
    achievable_rates,
    gamma,
    prelog_classify,
    rho_recursion,
    single_user_bound,
    solve_fixed_point,
    solve_gap,
    step_error_state,
    sweep_rates,
    verify_asymptotics,
)
from .channel import (
    ChannelParams,
    NoiseSpec,
    RngSpec,
    make_generator,
    sample_noise_pair,
)
from .errors import (
    DegenerateMessageError,
    GbflabError,
    NoFixedPointError,
    NumericalIntegrityError,
    ParameterError,
    UnsupportedConfigurationError,
)

__version__ = "0.1.0"

# The simulator loads on first use of one of its names, as numpy.random does:
# only simulations need it, and a process that runs none skips its import.
_SIMULATE_NAMES = frozenset({
    "CoefficientSchedule",
    "McSummary",
    "MessageConfig",
    "TrialRecord",
    "level_count",
    "lmmse_coefficient_schedule",
    "message_point_variance",
    "run_broadcast_campaign",
    "run_broadcast_trial",
    "run_interference_trial",
    "run_limited_feedback_trial",
})


def __getattr__(name: str):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
