"""gradlink: a desk-scale testbed for de-anonymizing shuffled federated
learning updates by gradient fingerprinting, with a DP-SGD defense."""

__version__ = "0.1.0"

from .corpus import SyntheticSpec, generate_synthetic, load_text_shards
from .dp import DpConfig, privatize, rdp_epsilon
from .fedsim import FedConfig, run_simulation
from .metrics import mutual_information, purity, rand_index
from .model import ModelConfig, init_model, loss_and_grads, sgd_step
from .traceio import TraceStore

__all__ = [
    "SyntheticSpec",
    "generate_synthetic",
    "load_text_shards",
    "DpConfig",
    "privatize",
    "rdp_epsilon",
    "FedConfig",
    "run_simulation",
    "mutual_information",
    "purity",
    "rand_index",
    "ModelConfig",
    "init_model",
    "loss_and_grads",
    "sgd_step",
    "TraceStore",
]
