"""Signal-to-noise diffusion models with closed-form verification oracles.

Noise schedules and their SDEs, a parameterized family of backward
samplers, schedules mapped into log-SNR space, Gaussian-channel
information quantities, and Gaussian-mixture data oracles that stand in
for trained score networks at desk scale.
"""

from .errors import ConfigError, NumericalError
from .schedule import (
    Schedule,
    SchedulePoint,
    make_schedule,
    schedule_from_dict,
    eval_schedule,
    snr,
)
from .gmm import (
    GmmSpec,
    gmm_from_dict,
    single_gaussian,
    sample_data,
    marginal_at,
    exact_score,
    posterior_mean,
    log_marginal_density,
    oracle_score_model,
)
from .dynamics import (
    DriftDiffusion,
    TransitionKernel,
    ScoreModel,
    forward_coeffs,
    transition,
    convert_score_model,
    backward_drift,
    euler_maruyama_forward,
)
from .samplers import (
    SamplerConfig,
    Trajectory,
    sampler_config_from_dict,
    step_generalized,
    step_kingma,
    step_non_markovian,
    step_euler_backward,
    exact_reference,
    make_time_grid,
    sample,
)
from .snr_space import (
    SnrPoint,
    EquivalenceReport,
    t_of_lambda,
    tilde_eval,
    time_warp,
    equivalence_check,
)
from .infotheory import (
    McEstimate,
    mmse_gaussian,
    mi_gaussian_closed,
    pointwise_mmse_gaussian,
    kl_gaussian_conditional,
    mmse_mc,
    pointwise_mmse_mc,
    dkl_dlambda,
    dmi_dlambda,
    kong_point,
)
from .metrics import (
    SampleQualityReport,
    moment_report,
    energy_distance,
    gaussian_kl_fit,
)

__version__ = "0.1.0"
