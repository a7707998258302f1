"""Core TCAM models: ITCAM, TTCAM, the item-weighting scheme, shared EM
machinery and fitted-parameter containers."""

from .em import (
    EMTrace,
    ScatterPlan,
    normalize_rows,
    random_stochastic,
    safe_divide,
    safe_log,
    scatter_sum,
    scatter_sum_1d,
)
from .engine import DEFAULT_BLOCK_SIZE, BlockedEStep, EMEngineConfig
from .gibbs import GibbsTTCAM
from .itcam import ITCAM
from .model import EMModel
from .parallel import PartitionedTTCAM
from .params import ITCAMParameters, TTCAMParameters
from .serialize import LoadedModel, load_params, save_params
from .stochastic import StochasticTTCAM
from .ttcam import TTCAM
from .weighting import (
    ItemWeights,
    apply_item_weighting,
    bursty_degree,
    compute_item_weights,
    inverse_user_frequency,
)

__all__ = [
    "EMTrace",
    "ScatterPlan",
    "DEFAULT_BLOCK_SIZE",
    "BlockedEStep",
    "EMEngineConfig",
    "normalize_rows",
    "random_stochastic",
    "safe_divide",
    "safe_log",
    "scatter_sum",
    "scatter_sum_1d",
    "GibbsTTCAM",
    "ITCAM",
    "EMModel",
    "PartitionedTTCAM",
    "ITCAMParameters",
    "TTCAMParameters",
    "LoadedModel",
    "load_params",
    "save_params",
    "StochasticTTCAM",
    "TTCAM",
    "ItemWeights",
    "apply_item_weighting",
    "bursty_degree",
    "compute_item_weights",
    "inverse_user_frequency",
]
