"""Synthetic workload generation: seeded Gaussian inputs and parameter
bundles, written as deterministic byte-identical files.

Inputs are standard normal draws of shape (layers, timesteps, N, D); the
run pipeline scales them by the configured noise schedule. Weights use a
1/sqrt(fan-in) scale. The branch projection is zero unless asked for,
and fresh adapters keep their second factor at zero, so a generated
workload starts exactly on the sparse-only path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .block import LoraUpdate, SaladParams
from .config import RunConfig
from .errors import ConfigError
from .numerics import Array, Rng
from .tensor_io import dumps_json, read_params, read_tensor, write_params, write_tensor

_INPUT_STREAM = 1
_PARAM_STREAM_BASE = 1000

MANIFEST_NAME = "manifest.json"
INPUTS_NAME = "inputs.stns"


@dataclass
class Workload:
    inputs: Array  # (layers, timesteps, N, D)
    params: list[SaladParams]


def make_params(cfg: RunConfig, rng: Rng) -> SaladParams:
    grid = cfg.to_grid()
    d = grid.channels  # model width equals attention channels
    h = grid.channels
    scale_in = d**-0.5
    b = cfg.block
    lora = {}
    if b.lora_rank > 0:
        for target in ("q", "k", "v", "o"):
            fan = d if target != "o" else h
            a = rng.normal((b.lora_rank, d if target != "o" else h)) * fan**-0.5
            lora[target] = LoraUpdate(
                a=a,
                b=np.zeros((h if target != "o" else d, b.lora_rank)),
                scale=b.lora_scale / b.lora_rank,
            )
    params = SaladParams(
        w_q=rng.normal((d, h)) * scale_in,
        w_k=rng.normal((d, h)) * scale_in,
        w_v=rng.normal((d, h)) * scale_in,
        w_o=rng.normal((h, d)) * h**-0.5,
        proj=rng.normal((h, h)) * h**-0.5 if b.random_proj else np.zeros((h, h)),
        gate_w=rng.normal((d,)) * scale_in,
        gate_b=b.gate_bias,
        lora=lora,
        gate_activation=b.gate_activation,
        gate_constant=b.gate_constant,
        lambda_override=b.lambda_override,
        dropped=b.dropped,
        gate_detached=b.gate_detached,
        variant=b.variant,
        w_q_lin=rng.normal((d, h)) * scale_in if b.variant == "non_shared" else None,
        w_k_lin=rng.normal((d, h)) * scale_in if b.variant == "non_shared" else None,
        w_v_lin=rng.normal((d, h)) * scale_in if b.variant == "non_shared" else None,
    )
    params.validate(grid)
    return params


def generate_workload(cfg: RunConfig) -> Workload:
    grid = cfg.to_grid()
    root = Rng(cfg.seed)
    n, d = grid.seq_len, grid.channels
    inputs = root.spawn(_INPUT_STREAM).normal((cfg.layers, cfg.timesteps, n, d))
    params = [make_params(cfg, root.spawn(_PARAM_STREAM_BASE + layer)) for layer in range(cfg.layers)]
    return Workload(inputs=inputs, params=params)


def write_workload(workload: Workload, cfg: RunConfig, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    inputs_path = out / INPUTS_NAME
    write_tensor(workload.inputs, inputs_path)
    written.append(inputs_path)
    param_names = []
    for layer, params in enumerate(workload.params):
        name = f"params_l{layer}.sldp"
        write_params(params, out / name, seed=cfg.seed)
        written.append(out / name)
        param_names.append(name)
    manifest = {
        "format": "salad-workload",
        "version": 1,
        "seed": cfg.seed,
        "layers": cfg.layers,
        "timesteps": cfg.timesteps,
        "grid": cfg.to_dict()["grid"],
        "inputs": INPUTS_NAME,
        "params": param_names,
    }
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(dumps_json(manifest))
    written.append(manifest_path)
    return written


def load_workload(dir_path: str | Path, cfg: RunConfig) -> Workload:
    root = Path(dir_path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ConfigError(f"no workload manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "salad-workload":
        raise ConfigError(f"{manifest_path} is not a workload manifest")
    inputs = read_tensor(root / manifest["inputs"])
    grid = cfg.to_grid()
    expect = (cfg.layers, cfg.timesteps, grid.seq_len, grid.channels)
    if inputs.shape != expect:
        raise ConfigError(f"workload inputs have shape {inputs.shape}, config wants {expect}")
    params = [read_params(root / name, grid) for name in manifest["params"]]
    if len(params) != cfg.layers:
        raise ConfigError(f"workload has {len(params)} parameter bundles for {cfg.layers} layers")
    return Workload(inputs=inputs, params=params)
