"""Experiment configuration: a single strict JSON document. Unknown keys are
errors so that sweep typos fail loudly.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from .corpus import SyntheticSpec
from .dp import DpConfig
from .errors import ConfigError, GradlinkError, require_integers
from .fedsim import FedConfig
from .model import layer_names

METHODS = ("kmeans", "spectral", "greedy")


@dataclass(frozen=True)
class ModelArch:
    """Model shape without the vocabulary size, which comes from the data."""

    embed_dim: int = 32
    context: int = 4
    n_blocks: int = 4
    ffn_mult: int = 4

    def __post_init__(self):
        require_integers(self, {"embed_dim": 1, "context": 1, "n_blocks": 1, "ffn_mult": 1})


@dataclass(frozen=True)
class FilesSpec:
    paths: List[str]
    train_sentences: int = 64
    valid_sentences: int = 8
    freq_cutoff: int = 1

    def __post_init__(self):
        if not isinstance(self.paths, list) or not all(isinstance(x, str) for x in self.paths):
            raise ConfigError(f"paths must be a list of file names, got {self.paths!r}")
        require_integers(self, {"train_sentences": 1, "valid_sentences": 1, "freq_cutoff": 1})


@dataclass(frozen=True)
class AttackSpec:
    method: str = "greedy"
    selector: str = "both"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"attack method must be one of {METHODS}")
        if not isinstance(self.selector, str):
            raise ConfigError(f"attack selector must be a string, got {self.selector!r}")


@dataclass
class ExperimentConfig:
    fed: FedConfig  # holds the seed
    model: ModelArch
    data: Union[SyntheticSpec, FilesSpec]
    dp: Optional[DpConfig]
    attack: AttackSpec


def _section(doc: dict, key: str, allowed, where: str, required=()):
    sub = doc.get(key, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"{where}.{key} must be an object")
    unknown = set(sub) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}.{key}: {sorted(unknown)}")
    missing = [k for k in required if k not in sub]
    if missing:
        raise ConfigError(f"missing keys in {where}.{key}: {missing}")
    return sub


def parse_experiment(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    top_allowed = {"seed", "fed", "model", "data", "dp", "attack"}
    unknown = set(doc) - top_allowed
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")

    fed_doc = _section(
        doc,
        "fed",
        {"clients", "rounds", "client_lr", "server_lr", "local_epochs", "batch_size", "shuffle"},
        "config",
        required=("clients", "rounds"),
    )
    model_doc = _section(
        doc, "model", {"embed_dim", "context", "n_blocks", "ffn_mult"}, "config"
    )

    data_doc = doc.get("data", {})
    if not isinstance(data_doc, dict) or len(data_doc) > 1:
        raise ConfigError("config.data must hold exactly one of 'synthetic' or 'files'")
    try:
        fed = FedConfig(seed=doc.get("seed", 0), **fed_doc)
        model = ModelArch(**model_doc)
        if "files" in data_doc:
            files_doc = _section(
                data_doc,
                "files",
                {"paths", "train_sentences", "valid_sentences", "freq_cutoff"},
                "config.data",
                required=("paths",),
            )
            data: Union[SyntheticSpec, FilesSpec] = FilesSpec(**files_doc)
            n_data_clients = len(data.paths)
        else:
            syn_doc = _section(
                data_doc,
                "synthetic",
                {
                    "n_clients",
                    "train_sentences",
                    "valid_sentences",
                    "sentence_len",
                    "topic_vocab_size",
                    "shared_vocab_size",
                    "overlap",
                },
                "config.data",
            )
            syn_doc = dict(syn_doc)
            if "sentence_len" in syn_doc:
                syn_doc["sentence_len"] = tuple(syn_doc["sentence_len"])
            syn_doc.setdefault("n_clients", fed.clients)
            data = SyntheticSpec(**syn_doc)
            n_data_clients = data.n_clients

        dp = None
        if doc.get("dp") is not None:
            dp_doc = _section(doc, "dp", {"clip", "sigma", "delta"}, "config", required=("clip", "sigma"))
            dp = DpConfig(**dp_doc)

        attack_doc = _section(doc, "attack", {"method", "selector"}, "config")
        attack = AttackSpec(**attack_doc)
    except GradlinkError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc

    if n_data_clients != fed.clients:
        raise ConfigError(
            f"config.fed.clients={fed.clients} but data provides {n_data_clients} clients"
        )
    layer_names(attack.selector, model.n_blocks)  # UsageError unless the selector fits the model
    return ExperimentConfig(fed=fed, model=model, data=data, dp=dp, attack=attack)


def load_json(path, what: str):
    """The JSON document in the file at `path`, a `what` ("config" or
    "grid config"); ConfigError if the file is missing or not JSON."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"missing {what} file: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{what} file {p} is not valid JSON: {exc}") from exc


def load_experiment(path) -> ExperimentConfig:
    return parse_experiment(load_json(path, "config"))
