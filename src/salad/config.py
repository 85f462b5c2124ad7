"""Run configuration: one JSON document, every field defaulted.

A config with nothing but a ``grid`` (or even an empty object) is
runnable. Any key can be overridden on the command line with repeated
``--set dotted.path=value`` flags; values parse as JSON with a plain
string fallback. Unknown keys are rejected so typos fail loudly, and every
value must match its field's annotation (:func:`salad.tensor_io.check_json`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import DROP_STRATEGIES, check_drop_params
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
from .numerics import DEFAULT_RANK_REL_TOL
from .tensor_io import check_json, load_json, parse_plan_record, read_plan, record_from_dict

MASK_KINDS = ("window", "topk", "calibrate", "explicit", "per_head")
DROP_KINDS = ("none", *DROP_STRATEGIES, "explicit")


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
    """The run's branch-drop plan: a strategy of ``DROP_KINDS``, the keys of
    every :data:`~salad.analysis.DROP_STRATEGIES` entry, checked whichever
    strategy runs (see :meth:`RunConfig.drop_params`), and ``layers`` for
    ``explicit``."""

    strategy: str = "none"
    lo: float = DROP_STRATEGIES["interval"]["lo"]
    hi: float = DROP_STRATEGIES["interval"]["hi"]
    fraction: float = DROP_STRATEGIES["random"]["fraction"]
    tau: float = DROP_STRATEGIES["threshold"]["tau"]
    seed: int | None = None
    layers: list[int] | None = None


@dataclass
class AnalysisCfg:
    rank_layers: list[int] | None = None
    rank_timestep: int = 0
    rank_rel_tol: float = DEFAULT_RANK_REL_TOL
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
    grid: LatentGrid = field(default_factory=LatentGrid)
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
        if self.mask.kind not in MASK_KINDS:
            raise ConfigError(f"mask.kind must be one of {MASK_KINDS}, got {self.mask.kind!r}")
        if self.drop.strategy not in DROP_KINDS:
            raise ConfigError(f"drop.strategy must be one of {DROP_KINDS}, got {self.drop.strategy!r}")
        self.drop_params()
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
        rope = self.to_rope()  # raises on a bad split
        if rope.head_dim != self.grid.head_dim:
            raise ConfigError(f"rope split covers {rope.head_dim} channels, head_dim is {self.grid.head_dim}")
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
            where = f"analysis.strategies[{i}]"
            check_json(entry.get("strategy"), str, f"{where}.strategy")
            check_drop_params(entry["strategy"], {k: v for k, v in entry.items() if k != "strategy"}, where)
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
        return self.grid

    def drop_params(self) -> dict[str, dict]:
        """Each strategy of :data:`~salad.analysis.DROP_STRATEGIES` -> its
        ``drop`` keys, checked by :func:`~salad.analysis.check_drop_params`
        whichever strategy the run uses; an unset seed is the run's."""
        d = self.drop
        seed = self.seed if d.seed is None else d.seed
        return {strategy: check_drop_params(strategy, {key: seed if key == "seed" else getattr(d, key)
                                                       for key in keys})
                for strategy, keys in DROP_STRATEGIES.items()}

    def to_rope(self) -> RopeConfig:
        if self.rope.split is None:
            return RopeConfig.default(self.grid.head_dim, self.rope.base)
        return RopeConfig(split=tuple(self.rope.split), base=self.rope.base)

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


def config_from_dict(doc: dict) -> RunConfig:
    return record_from_dict(RunConfig, doc, strict=True).validate()


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> RunConfig:
    """Read a config file (or start from defaults) and apply overrides."""
    doc = {} if path is None else load_json(path, f"config file {path}")
    check_json(doc, dict, f"config file {path}")
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
        value = load_json(raw.encode("utf-8", "surrogateescape"), f"--set {key}")
    except ConfigError:
        value = raw
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object value")
    node[parts[-1]] = value
