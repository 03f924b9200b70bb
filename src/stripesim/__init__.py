"""Uplink cell-free massive MIMO simulator on a daisy-chained radio stripe."""

from .baselines import MrFusionAccumulator, centralized_lmmse_l4
from .channel import (
    ChannelEstimateSet, EstimationStatistics, PilotObservation, draw_channels,
    estimation_statistics, mmse_estimate, simulate_pilot_phase,
)
from .config import (
    CorrelationModel, SimulationConfig, config_from_ini, config_to_ini,
    load_config, save_config,
)
from .metrics import (
    CdfSeries, FronthaulReport, empirical_cdf, fronthaul_load,
    instantaneous_sinr, percentile, sinr_per_ue, spectral_efficiency,
)
from .runner import (
    ALL_SCHEMES, SCHEME_L4, SCHEME_MR, SCHEME_STRIPE, SEResult,
    config_fingerprint, rng_stream, run_experiment, simulate_setup,
)
from .scenario import (
    Scenario, assign_pilots, build_scenario, local_scattering_covariance,
    pathloss_db,
)
from .stripe import (
    PayloadRealization, StageState, StripeRun, combiner_stage, run_stripe,
    stage_update,
)

__version__ = "0.1.0"
