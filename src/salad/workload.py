"""Synthetic workload generation: seeded Gaussian inputs and parameter
bundles, written as deterministic byte-identical files.

Inputs are standard normal draws of shape (layers, timesteps, N, D); the
run pipeline scales them by the configured noise schedule. Weights use a
1/sqrt(fan-in) scale. The branch projection is zero unless asked for,
and fresh adapters keep their second factor at zero, so a generated
workload starts exactly on the sparse-only path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .block import BLOCK_FLAGS, LoraUpdate, SaladParams
from .config import RunConfig
from .errors import ConfigError
from .numerics import Array, Rng
from .tensor_io import (DOCUMENT_VERSION, check_header, check_json, dumps_json, load_json,
                        read_params, read_tensor, write_params, write_tensor)

_INPUT_STREAM = 1
_PARAM_STREAM_BASE = 1000

MANIFEST_NAME = "manifest.json"
WORKLOAD_FORMAT = "salad-workload"
INPUTS_NAME = "inputs.stns"


@dataclass
class Workload:
    inputs: Array  # (layers, timesteps, N, D)
    params: list[SaladParams]


def make_params(cfg: RunConfig, rng: Rng) -> SaladParams:
    grid = cfg.to_grid()
    d = grid.channels  # model width equals attention channels, so every weight is d x d
    b = cfg.block

    def draw(*shape: int) -> Array:
        return rng.normal(shape) * d**-0.5

    lora = {target: LoraUpdate(a=draw(b.lora_rank, d), b=np.zeros((d, b.lora_rank)),
                               scale=b.lora_scale / b.lora_rank)
            for target in ("q", "k", "v", "o")} if b.lora_rank > 0 else {}
    params = SaladParams(
        w_q=draw(d, d), w_k=draw(d, d), w_v=draw(d, d), w_o=draw(d, d),
        proj=draw(d, d) if b.random_proj else np.zeros((d, d)),
        gate_w=draw(d),
        gate_b=b.gate_bias,
        lora=lora,
        **{key: getattr(b, key) for key in BLOCK_FLAGS},
        **{name: draw(d, d) if b.variant == "non_shared" else None
           for name in ("w_q_lin", "w_k_lin", "w_v_lin")},
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
        "format": WORKLOAD_FORMAT,
        "version": DOCUMENT_VERSION,
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
    where = f"workload manifest {manifest_path}"
    manifest = check_header(load_json(manifest_path, where), WORKLOAD_FORMAT, where)
    check_json(manifest, {"inputs": str, "params": list[str]}, where)
    inputs = read_tensor(root / manifest["inputs"])
    grid = cfg.to_grid()
    expect = (cfg.layers, cfg.timesteps, grid.seq_len, grid.channels)
    if inputs.shape != expect:
        raise ConfigError(f"workload inputs have shape {inputs.shape}, config wants {expect}")
    params = [read_params(root / name, grid) for name in manifest["params"]]
    if len(params) != cfg.layers:
        raise ConfigError(f"workload has {len(params)} parameter bundles for {cfg.layers} layers")
    return Workload(inputs=inputs, params=params)
