"""gbflab: feedback coding laboratory for two-user Gaussian channels with
correlated receiver noises."""

from .analysis import (
    AsymptoticsReport,
    AsymptoticsRow,
    CubicCoeffs,
    ErrorState,
    FixedPoint,
    GapCubicCoeffs,
    PrelogClass,
    PrelogValue,
    RatePoint,
    SweepRow,
    achievable_rates,
    cubic_coeffs,
    gamma,
    gap_cubic_coeffs,
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
from .simulate import (
    CoefficientSchedule,
    McSummary,
    MessageConfig,
    TrialRecord,
    level_count,
    lmmse_coefficient_schedule,
    message_point_variance,
    run_broadcast_campaign,
    run_broadcast_trial,
    run_interference_trial,
    run_limited_feedback_trial,
)

__version__ = "0.1.0"
