"""Online RL for time-varying systems: detection, per-environment
exploration, multiple experts, and safety monitoring, with straggler
mitigation and adaptive-bitrate streaming case studies."""

from .a2c import A2cLearner, EpisodeBatch, Trajectory, compute_gae
from .dqn import DqnLearner, RewardScaler, polyak_update
from .errors import ConfigError, DivergenceError, UsageError
from .framework import ExpertManager, GmmDetector, SafetyMonitor, augment_observation
from .nets import Adam, DeepSetsEncoder, Mlp
from .replay import Batch, Experience, make_buffer
from .stats import BoxStats, nearest_rank

__all__ = [
    "A2cLearner", "Adam", "Batch", "BoxStats", "ConfigError", "DeepSetsEncoder",
    "DivergenceError", "DqnLearner", "EpisodeBatch", "Experience",
    "ExpertManager", "GmmDetector", "Mlp", "RewardScaler", "SafetyMonitor",
    "Trajectory", "UsageError", "augment_observation", "compute_gae",
    "make_buffer", "nearest_rank", "polyak_update",
]
