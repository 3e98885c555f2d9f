"""Run configuration: JSON schema, defaults, and dotted-key overrides."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .gnn import ModelConfig


@dataclass
class DatasetConfig:
    kind: str = "synthetic"        # "synthetic" | "edge-list-dir"
    path: str | None = None        # for "edge-list-dir"
    name: str = "synthetic"
    n_nodes: int = 80
    n_classes: int = 3
    feat_dim: int = 8
    intra_class_edge_prob: float = 0.15
    inter_class_edge_prob: float = 0.02
    seed: int = 1
    train_frac: float = 0.3
    val_frac: float = 0.2
    class_sep: float = 2.0
    noise: float = 1.0


@dataclass
class PartitionConfig:
    kind: str = "uniform"          # "uniform" | "label-skew"
    P: int = 2
    q: float = 0.0                 # label-skew redistribution percentage
    duplicate_fraction: float = 0.0
    seed: int = 7
    node_scope: str = "full"       # uniform split: "full" | "edge-incident"


@dataclass
class TrainConfig:
    lr: float = 0.01
    max_epochs: int = 300
    patience: int = 30
    seed: int = 11


def _refuse_unknown(d: dict, cls, where: str):
    """ValueError if `d` is no dict, or naming its first key that is no field
    of `cls`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} is not a JSON object")
    names = {f.name for f in fields(cls)}
    for key in d:
        if key not in names:
            raise ValueError(f"unknown key {key!r} in {where}")


# the RunConfig fields that hold a nested config, and its class
_SECTIONS = {"dataset": DatasetConfig, "partition": PartitionConfig, "model": ModelConfig,
             "train": TrainConfig}


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    mode: str = "naive"            # "naive" | "secure-pooling"
    share_mode: str = "real"       # "real" | "fixed-point"

    def __post_init__(self):
        if self.mode not in ("naive", "secure-pooling"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.share_mode not in ("real", "fixed-point"):
            raise ValueError(f"unknown share mode {self.share_mode!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["model"]["update_kind"] = self.model.update_kind.value
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config a plain dict describes; a config or section that is no
        dict, or a key that names no field, is refused by name."""
        _refuse_unknown(d, cls, "the config")
        kwargs = dict(d)
        for key, section in _SECTIONS.items():
            if key in d:
                _refuse_unknown(d[key], section, f"config section {key!r}")
                kwargs[key] = section(**d[key])
        return cls(**kwargs)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(config_dict: dict, overrides: list[str]) -> dict:
    """Apply "section.key=value" overrides to a plain config dict. A dotted
    key that descends through a value that is not a section is refused."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        target = config_dict
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ValueError(f"override {key!r}: {part!r} is a value, not a config section")
        target[parts[-1]] = _parse_value(raw)
    return config_dict
