"""Golden digests: the bytes every artifact writer produces for fixed seeds.

Each digest below is the sha256 of a file (or of the ``salad check``
verdict lines with their trailing timings removed) for one small seeded
configuration. Refactors must keep every one of them. The digests depend
on numpy's elementwise kernels (exp, sin, cos), so they were recorded on
one numpy version and the whole module skips on any other.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from salad.cli import main
from salad.tensor_io import dumps_json

#: numpy version the digests were recorded with.
GOLDEN_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden digests were recorded with numpy {GOLDEN_NUMPY}, found {np.__version__}",
)

BASE = [
    "--seed", "7", "--no-timestamp",
    "--set", "layers=2", "--set", "timesteps=3",
    "--set", "grid.frames=2", "--set", "grid.height=4", "--set", "grid.width=4",
    "--set", "grid.heads=2", "--set", "grid.head_dim=8",
]

CONFIGS = {
    "window_reordered": ["--set", "mask.kind=window", "--set", "mask.radius=5",
                         "--set", "mask.reordered=true"],
    "topk": ["--set", "mask.kind=topk", "--set", "mask.block_size=4", "--set", "mask.k=3"],
    "calibrate": ["--set", "mask.kind=calibrate"],
    "non_shared_lora_drop": ["--set", "block.variant=non_shared", "--set", "block.lora_rank=2",
                             "--set", "block.random_proj=true",
                             "--set", "drop.strategy=interval"],
}

REPORT_DIGESTS = {
    "window_reordered": "4a9d046b6abdb3d11520c0871922b5eb1ecab1181af016a8097030d5b2a3c0b1",
    "topk": "503070c9e9d451e86b5902660415421b03b175feec6a6ce420d7758ddf7e5015",
    "calibrate": "e3412167a2f08638ea6869e6b805ae50dd0ebbc0198413d794ade276623045f5",
    "non_shared_lora_drop": "839f2484af2c97f59d1bd6b3f94ffd31bf7e7dd1a8e4763a28fb5aed6dea2507",
}

GEN_DIGESTS = {
    "inputs.stns": "11ac8c183bb6ee93fb6b359b41386165b80c12fb0596554b15233c21bb2788eb",
    "manifest.json": "09b4120117171a50f02768d78f79cde77d1150bbd32e1d0fd296d269a985dbe6",
    "params_l0.sldp": "fc227e85873f6da10c4813262c4c9fcf7fb4b6f8bae93734c9f919a08c603961",
    "params_l1.sldp": "69817d5d626c19249327491c2f033b62cedc756ac8623c0f7386152984de9dc1",
}

MAPS_DIGESTS = {
    "l1_t2_linear_h1.csv": "eaecf3b40c5f5dfa5378102a7dbc7e9815eedd99d4b76786908c6195a9a5f1d3",
    "l1_t2_linear_h1.pgm": "9508692562a5a2ccc0bddab0b6297429ed79b46eab21ae659551d0169036efd3",
    "l1_t2_sparse_h1.csv": "5d2db932aad0831ecc4733c8ce9ce863ce3659c4ed34c4be6ef39e98d00c97b5",
    "l1_t2_sparse_h1.pgm": "8d2bdf27e36c158e50f1c69b122849c2adff26925a317c07e9f1e6322e406ad6",
}

ANALYZE_DIGESTS = {
    "analysis.json": "9fbe43a93aae0cab956047c8d5c51073e5ea21387f607d4e777781205aee43d6",
    "gates.csv": "a8709664d547166e0e9d35d13f7a4590a906520e233d1cc2876afc910055334b",
    "percentiles.csv": "d2189daaaee53b652811b6cf4ec1db1f0de87890fe0def34b16943586b7bf681",
}

CHECK_VERDICT_DIGEST = "47166e66322b8af6c79ccf3e5ea513559511df29a17f2e016d2e78c5bb266757"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_digests(path) -> dict:
    return {p.name: sha256(p.read_bytes()) for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digest(tmp_path, name):
    assert main(["run", *BASE, *CONFIGS[name], "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "report.json").read_bytes()) == REPORT_DIGESTS[name]


def test_report_digest_two_threads(tmp_path):
    args = ["run", *BASE, *CONFIGS["window_reordered"], "--threads", "2", "--out", str(tmp_path)]
    assert main(args) == 0
    assert sha256((tmp_path / "report.json").read_bytes()) == REPORT_DIGESTS["window_reordered"]


def test_gen_digests(tmp_path):
    args = ["gen", *BASE, *CONFIGS["non_shared_lora_drop"], "--out", str(tmp_path)]
    assert main(args) == 0
    assert dir_digests(tmp_path) == GEN_DIGESTS


def test_export_maps_digests(tmp_path):
    args = ["export-maps", *BASE, *CONFIGS["window_reordered"], "--set", "maps.layer=1",
            "--set", "maps.timestep=2", "--set", "maps.head=1", "--out", str(tmp_path)]
    assert main(args) == 0
    assert dir_digests(tmp_path / "maps") == MAPS_DIGESTS


def test_check_verdict_digest(capsys):
    assert main(["check"]) == 0
    verdicts = re.sub(r" \(\d+\.\d+s\)$", "", capsys.readouterr().out, flags=re.MULTILINE)
    assert verdicts.count("[PASS]") == 15
    assert sha256(verdicts.encode()) == CHECK_VERDICT_DIGEST


def test_analyze_digests(tmp_path):
    # analysis.json echoes the report paths, which differ per run; they are
    # dropped before hashing.
    run = ["run", *BASE, *CONFIGS["non_shared_lora_drop"], "--out", str(tmp_path / "r")]
    assert main(run) == 0
    analyze = ["analyze", *BASE, "--report", str(tmp_path / "r" / "report.json"),
               "--out", str(tmp_path / "a")]
    assert main(analyze) == 0
    summary = json.loads((tmp_path / "a" / "analysis.json").read_text())
    summary.pop("reports")
    (tmp_path / "a" / "analysis.json").write_text(dumps_json(summary))
    assert dir_digests(tmp_path / "a") == ANALYZE_DIGESTS
