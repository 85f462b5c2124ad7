"""Run configuration: one JSON document, every field defaulted.

A config with nothing but a ``grid`` (or even an empty object) is
runnable. Any key can be overridden on the command line with repeated
``--set dotted.path=value`` flags; values parse as JSON with a plain
string fallback. Unknown keys are rejected so typos fail loudly, and every
value must match its field's annotation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .block import GATE_ACTIVATIONS, VARIANTS
from .errors import ConfigError
from .linear_attention import DEFAULT_ROPE_BASE, RopeConfig
from .masking import (
    DEFAULT_CALIBRATION_DELTA,
    DEFAULT_TOPK,
    LatentGrid,
    MaskPlan,
    TopK,
    Window,
)
from .tensor_io import parse_plan_record, read_plan

MASK_KINDS = ("window", "topk", "calibrate", "explicit", "per_head")
DROP_STRATEGIES = ("none", "interval", "random", "threshold", "explicit")

#: The keys an ``analysis.strategies`` entry may set besides ``strategy``,
#: with their types: the keyword arguments of ``analysis.plan_branch_drop``.
#: Omitted keys take its defaults.
STRATEGY_FIELDS = {
    "interval": {"lo": float, "hi": float},
    "random": {"fraction": float, "seed": int},
    "threshold": {"tau": float},
}


@dataclass
class GridCfg:
    frames: int = 4
    height: int = 4
    width: int = 4
    heads: int = 2
    head_dim: int = 8

    def to_grid(self) -> LatentGrid:
        return LatentGrid(self.frames, self.height, self.width, self.heads, self.head_dim)


@dataclass
class SigmaCfg:
    """Noise scales per simulated timestep; explicit ``values`` win over
    the geometric schedule between ``max`` and ``min``."""

    max: float = 1.0
    min: float = 0.1
    values: list[float] | None = None

    def schedule(self, timesteps: int) -> list[float]:
        if self.values is not None:
            if len(self.values) != timesteps:
                raise ConfigError(
                    f"sigma.values has {len(self.values)} entries for {timesteps} timesteps"
                )
            return [float(v) for v in self.values]
        if not (0.0 < self.max < math.inf and 0.0 < self.min < math.inf):
            raise ConfigError(f"sigma.max and sigma.min must be positive and finite, "
                              f"got {self.max} and {self.min}")
        if timesteps == 1:
            return [self.max]
        ratio = (self.min / self.max) ** (1.0 / (timesteps - 1))
        return [self.max * ratio**i for i in range(timesteps)]


@dataclass
class MaskCfg:
    kind: str = "window"
    radius: int = 8
    reordered: bool = False
    block_size: int = 8
    k: int = DEFAULT_TOPK
    candidates: list[int] = field(default_factory=lambda: [1, 2, 4, 8, 16])
    delta: float = DEFAULT_CALIBRATION_DELTA
    choose_reorder: bool = True
    per_head: list[dict] | None = None
    plan_path: str | None = None


@dataclass
class RopeCfg:
    base: float = DEFAULT_ROPE_BASE
    split: list[int] | None = None

    def to_rope(self, head_dim: int) -> RopeConfig:
        if self.split is None:
            return RopeConfig.default(head_dim, self.base)
        return RopeConfig(split=tuple(self.split), base=self.base)


@dataclass
class BlockCfg:
    variant: str = "shared"
    gate_activation: str = "sigmoid"
    gate_constant: float = 0.5
    lambda_override: float | None = None
    dropped: bool = False
    gate_detached: bool = False
    lora_rank: int = 0
    lora_scale: float = 1.0
    random_proj: bool = False
    gate_bias: float = -1.0
    params_bundle: str | None = None


@dataclass
class DropCfg:
    strategy: str = "none"
    lo: float = 0.8
    hi: float = 1.0
    fraction: float = 0.2
    tau: float = 0.1
    seed: int | None = None
    layers: list[int] | None = None


@dataclass
class AnalysisCfg:
    rank_layers: list[int] | None = None
    rank_timestep: int = 0
    rank_rel_tol: float = 1e-6
    strategies: list[dict] | None = None


@dataclass
class MapsCfg:
    export: bool = False
    layer: int = 0
    timestep: int = 0
    head: int = 0


@dataclass
class ChecksCfg:
    gradcheck_in_run: bool = False


@dataclass
class RunConfig:
    seed: int = 0
    out: str = "out"
    threads: int = 1
    timestamp: bool = True
    layers: int = 4
    timesteps: int = 5
    workload_dir: str | None = None
    grid: GridCfg = field(default_factory=GridCfg)
    sigma: SigmaCfg = field(default_factory=SigmaCfg)
    mask: MaskCfg = field(default_factory=MaskCfg)
    rope: RopeCfg = field(default_factory=RopeCfg)
    block: BlockCfg = field(default_factory=BlockCfg)
    drop: DropCfg = field(default_factory=DropCfg)
    analysis: AnalysisCfg = field(default_factory=AnalysisCfg)
    maps: MapsCfg = field(default_factory=MapsCfg)
    checks: ChecksCfg = field(default_factory=ChecksCfg)

    def validate(self) -> "RunConfig":
        if self.layers < 1 or self.timesteps < 1 or self.threads < 1:
            raise ConfigError("layers, timesteps, and threads must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        self.grid.to_grid()
        if self.mask.kind not in MASK_KINDS:
            raise ConfigError(f"mask.kind must be one of {MASK_KINDS}, got {self.mask.kind!r}")
        if self.drop.strategy not in DROP_STRATEGIES:
            raise ConfigError(f"drop.strategy must be one of {DROP_STRATEGIES}, got {self.drop.strategy!r}")
        if self.block.variant not in VARIANTS:
            raise ConfigError(f"block.variant must be one of {VARIANTS}, got {self.block.variant!r}")
        if self.block.gate_activation not in GATE_ACTIVATIONS:
            raise ConfigError(f"unknown gate activation {self.block.gate_activation!r}")
        if self.block.lora_rank < 0:
            raise ConfigError("block.lora_rank must be >= 0")
        if any(r < 0 for r in self.mask.candidates):
            raise ConfigError(f"mask.candidates must be radii >= 0, got {self.mask.candidates}")
        if not 0.0 < self.analysis.rank_rel_tol < 1.0:
            raise ConfigError(f"analysis.rank_rel_tol must be in (0, 1), got {self.analysis.rank_rel_tol}")
        self.rope.to_rope(self.grid.head_dim)  # raises on a bad split
        self.sigma.schedule(self.timesteps)
        if self.maps.export:
            if not 0 <= self.maps.layer < self.layers:
                raise ConfigError(f"maps.layer {self.maps.layer} out of range for {self.layers} layers")
            if not 0 <= self.maps.timestep < self.timesteps:
                raise ConfigError(f"maps.timestep {self.maps.timestep} out of range")
            if not 0 <= self.maps.head < self.grid.heads:
                raise ConfigError(f"maps.head {self.maps.head} out of range for {self.grid.heads} heads")
        for key, listed in (("analysis.rank_layers", self.analysis.rank_layers),
                            ("drop.layers", self.drop.layers)):
            bad = [l for l in listed or [] if not 0 <= l < self.layers]
            if bad:
                raise ConfigError(f"{key} entry {bad[0]} out of range for {self.layers} layers")
        if not 0 <= self.analysis.rank_timestep < self.timesteps:
            raise ConfigError(f"analysis.rank_timestep {self.analysis.rank_timestep} out of range")
        for i, entry in enumerate(self.analysis.strategies or []):
            _check_strategy(entry, f"analysis.strategies[{i}]")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def semantic_dict(self) -> dict:
        """Config echo for reports: everything that shapes the results.

        Execution context (output directory, thread count, timestamping)
        is omitted so identical work produces identical bytes no matter
        where or how it ran.
        """
        doc = self.to_dict()
        for key in ("out", "threads", "timestamp"):
            doc.pop(key)
        return doc

    def to_grid(self) -> LatentGrid:
        return self.grid.to_grid()

    def to_rope(self) -> RopeConfig:
        return self.rope.to_rope(self.grid.head_dim)

    def static_plan(self) -> MaskPlan | None:
        """Plan derivable without data; calibrate and topk-at-runtime
        entries return None only when data is required (topk is static in
        shape terms, so only ``calibrate`` is data-dependent here)."""
        heads = self.grid.heads
        m = self.mask
        if m.kind == "window":
            return MaskPlan.uniform(Window(radius=m.radius, reordered=m.reordered), heads)
        if m.kind == "topk":
            return MaskPlan.uniform(TopK(block_size=m.block_size, k=m.k), heads)
        if m.kind == "per_head":
            if not m.per_head or len(m.per_head) != heads:
                raise ConfigError(f"mask.per_head must list {heads} entries")
            return MaskPlan([parse_plan_record(rec, f"mask.per_head[{i}]")
                             for i, rec in enumerate(m.per_head)])
        if m.kind == "explicit":
            if not m.plan_path:
                raise ConfigError("mask.kind=explicit requires mask.plan_path")
            plan = read_plan(m.plan_path)
            if len(plan) != heads:
                raise ConfigError(f"plan at {m.plan_path} has {len(plan)} heads, config wants {heads}")
            return plan
        return None  # calibrate: needs profiling data


_SECTION_TYPES = {
    "grid": GridCfg,
    "sigma": SigmaCfg,
    "mask": MaskCfg,
    "rope": RopeCfg,
    "block": BlockCfg,
    "drop": DropCfg,
    "analysis": AnalysisCfg,
    "maps": MapsCfg,
    "checks": ChecksCfg,
}


def _matches(value: Any, hint: Any) -> bool:
    """Whether a JSON value fits a field annotation. A bool is not an int;
    an int is a valid float (JSON has one number type)."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_matches(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_matches(v, item) for v in value)
    if hint is type(None):
        return value is None
    if hint is float:
        return type(value) in (int, float)
    if hint is int:
        return type(value) is int
    return isinstance(value, hint)


def _check_strategy(entry: dict, where: str) -> None:
    """An ``analysis.strategies`` entry names a known strategy and sets only
    that strategy's keys, each a finite number of its field's type."""
    strategy = entry.get("strategy")
    if not (isinstance(strategy, str) and strategy in STRATEGY_FIELDS):
        raise ConfigError(f"{where}.strategy must be one of {tuple(STRATEGY_FIELDS)}, got {strategy!r}")
    fields = STRATEGY_FIELDS[strategy]
    for key, value in entry.items():
        if key == "strategy":
            continue
        if key not in fields:
            raise ConfigError(f"{where} sets {key!r}, which strategy {strategy!r} does not take "
                              f"(allowed: {', '.join(fields)})")
        if not (_matches(value, fields[key]) and abs(value) <= sys.float_info.max):
            raise ConfigError(f"{where}.{key} must be a finite {fields[key].__name__}, got {value!r}")


def _check_keys(cls, doc: dict, prefix: str) -> None:
    """Reject keys ``cls`` does not declare and values that do not match
    their field's annotation; sections are checked by their own class."""
    hints = typing.get_type_hints(cls)
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    for key in sorted(doc):
        if key not in declared:
            raise ConfigError(f"unknown config key {prefix}{key}")
        if key not in _SECTION_TYPES and not _matches(doc[key], hints[key]):
            raise ConfigError(f"config key {prefix}{key} must be {declared[key]}, got {doc[key]!r}")


def _build_section(cls, doc: Any, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {path!r} must be an object")
    _check_keys(cls, doc, f"{path}.")
    return cls(**doc)


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(RunConfig, doc, "")
    kwargs: dict[str, Any] = {}
    for key, value in doc.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        else:
            kwargs[key] = value
    return RunConfig(**kwargs).validate()


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> RunConfig:
    """Read a config file (or start from defaults) and apply overrides."""
    doc: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    for item in overrides or []:
        apply_override(doc, item)
    return config_from_dict(doc)


def apply_override(doc: dict, item: str) -> None:
    """Apply one ``dotted.path=value`` assignment into a raw config dict."""
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    parts = key.strip().split(".")
    if not all(parts):
        raise ConfigError(f"bad --set key {key!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object value")
    node[parts[-1]] = value
