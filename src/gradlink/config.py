"""Experiment configuration: a single strict JSON document. Each section's
keys are the fields of its dataclass; unknown keys are errors so that sweep
typos fail loudly, and so are missing fields that have no default.
"""

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Union

from .corpus import SyntheticSpec
from .dp import DpConfig
from .errors import ConfigError, check_fields, integer, json_document, known_keys, read_input
from .fedsim import FedConfig
from .model import ModelArch, layer_names
from .traceio import METHOD_RULE, SELECTOR_RULE


@dataclass(frozen=True)
class FilesSpec:
    paths: List[str]
    train_sentences: int = 64
    valid_sentences: int = 8
    freq_cutoff: int = 1

    def __post_init__(self):
        check_fields(self, {
            "paths": ("a list of file names",
                      lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
            "train_sentences": integer(1), "valid_sentences": integer(1), "freq_cutoff": integer(1),
        })


@dataclass(frozen=True)
class AttackSpec:
    method: str = "greedy"
    selector: str = "both"

    def __post_init__(self):
        check_fields(self, {"method": METHOD_RULE, "selector": SELECTOR_RULE})


@dataclass
class ExperimentConfig:
    """A config document: one section per field, plus the top-level `seed`
    that `fed` holds."""

    fed: FedConfig
    model: ModelArch
    data: Union[SyntheticSpec, FilesSpec]
    dp: Optional[DpConfig]
    attack: AttackSpec


def _build(cls, doc, where: str, **given):
    """A `cls` from the config section `doc` found at `where`. The section's
    keys are the fields of `cls` that `given` does not set, and those with
    no default are required."""
    accepted = [f for f in dataclasses.fields(cls) if f.name not in given]
    required = [f.name for f in accepted if f.default is f.default_factory is dataclasses.MISSING]
    return cls(**known_keys(doc, [f.name for f in accepted], where, required), **given)


def parse_experiment(doc: dict) -> ExperimentConfig:
    top = ["seed", *(f.name for f in dataclasses.fields(ExperimentConfig))]
    known_keys(doc, top, "config", required=())
    data_doc = doc.get("data", {})
    if not isinstance(data_doc, dict) or set(data_doc) not in (set(), {"synthetic"}, {"files"}):
        raise ConfigError("config.data must hold exactly one of 'synthetic' or 'files'")
    fed = _build(FedConfig, doc.get("fed", {}), "config.fed", seed=doc.get("seed", 0))
    model = _build(ModelArch, doc.get("model", {}), "config.model")
    if "files" in data_doc:
        data: Union[SyntheticSpec, FilesSpec] = _build(FilesSpec, data_doc["files"],
                                                       "config.data.files")
        if len(data.paths) != fed.clients:
            raise ConfigError(f"config.fed.clients={fed.clients} but data.files "
                              f"has {len(data.paths)} paths, one per client")
    else:
        data = _build(SyntheticSpec, data_doc.get("synthetic", {}), "config.data.synthetic",
                      n_clients=fed.clients)
    dp = None if doc.get("dp") is None else _build(DpConfig, doc["dp"], "config.dp")
    attack = _build(AttackSpec, doc.get("attack", {}), "config.attack")

    layer_names(attack.selector, model.n_blocks)  # UsageError unless the selector fits the model
    return ExperimentConfig(fed=fed, model=model, data=data, dp=dp, attack=attack)


def load_experiment(path) -> ExperimentConfig:
    """The experiment in the config file at `path`: InputError if the file
    is missing or not JSON, ConfigError if the document is not a config."""
    return parse_experiment(read_input(path, "config", json_document))
