"""Golden digests: the bytes every artifact writer produces for fixed seeds.

Each digest below is the sha256 of a file (or of the ``salad check``
verdict lines with their trailing timings removed, or of one block's
forward output, loss and gradients) for one small seeded configuration. Refactors must keep every one of them. The digests depend
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
    "explicit_drop": ["--set", "drop.strategy=explicit", "--set", "drop.layers=[1]"],
    "explicit_drop_topk": ["--set", "mask.kind=topk", "--set", "mask.block_size=4",
                           "--set", "mask.k=3", "--set", "drop.strategy=explicit",
                           "--set", "drop.layers=[1]"],
    "block_dropped": ["--set", "block.dropped=true"],
}

REPORT_DIGESTS = {
    "window_reordered": "4a9d046b6abdb3d11520c0871922b5eb1ecab1181af016a8097030d5b2a3c0b1",
    "topk": "503070c9e9d451e86b5902660415421b03b175feec6a6ce420d7758ddf7e5015",
    "calibrate": "e3412167a2f08638ea6869e6b805ae50dd0ebbc0198413d794ade276623045f5",
    "non_shared_lora_drop": "839f2484af2c97f59d1bd6b3f94ffd31bf7e7dd1a8e4763a28fb5aed6dea2507",
    "explicit_drop": "e28190df957a649968cd0a25141109386241d5286b4a3e1c4c5105e846ced34f",
    "explicit_drop_topk": "d7a0eacc055e35ae479ac3b71df13677c6d645d846494ce74f3e8eafca44ee09",
    "block_dropped": "a46c71abd9437fb2ef073bf474d20f735b2b5494739fc8d3445cc0c02213a7e7",
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


#: Rank layers out of order, a nonzero rank timestep with a cutoff at which
#: ranks differ between timesteps, and a maps task that is no rank task: the
#: run must keep exactly the records its report and maps read.
RETAINED_TASKS = ["--set", "layers=3", "--set", "timesteps=4",
                  "--set", "analysis.rank_layers=[2,0]", "--set", "analysis.rank_timestep=1",
                  "--set", "analysis.rank_rel_tol=0.1", "--set", "maps.export=true",
                  "--set", "maps.layer=1", "--set", "maps.timestep=3"]

RETAINED_REPORT_DIGEST = "707f1b5dbecf89eda43b059950fea065437e59749817a728e6858a8f14dc535b"

RETAINED_MAPS_DIGESTS = {
    "l1_t3_linear_h0.csv": "6f3bb718cc70adb90891380df363819b1a4faffb3927615cbd2708b0765a3e00",
    "l1_t3_linear_h0.pgm": "08e77153062c98a65d976bc02f48d15d385e46665e7a511d76df7933a34240dc",
    "l1_t3_sparse_h0.csv": "a917e1e24f7a9f335e7e1484821fa3847e0adcfc97381c52f1dc717c9b80f5e1",
    "l1_t3_sparse_h0.pgm": "aefecb05cb57d1f88c8291b92281e10e06fd3163dddf996f50c80a8dd7b11ea3",
}


def test_retained_tasks_digests(tmp_path):
    args = ["run", *BASE, *CONFIGS["window_reordered"], *RETAINED_TASKS, "--threads", "2",
            "--out", str(tmp_path)]
    assert main(args) == 0
    assert sha256((tmp_path / "report.json").read_bytes()) == RETAINED_REPORT_DIGEST
    assert dir_digests(tmp_path / "maps") == RETAINED_MAPS_DIGESTS


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


# ---------------------------------------------------------------------------
# Static speedup model: exact reprs of estimate_speedup


def speedup_cases():
    from salad.masking import LatentGrid, MaskPlan, TopK, Window

    small = LatentGrid(2, 4, 4, heads=2, head_dim=8)
    large = LatentGrid(frames=21, height=60, width=60, heads=12, head_dim=128)
    window = MaskPlan.uniform(Window(radius=5), small.heads)
    return {
        "window": (window, small, {"total_layers": 3}),
        "topk_static": (MaskPlan.uniform(TopK(block_size=4, k=3), small.heads), small,
                        {"total_layers": 3}),
        "window_no_linear": (window, small, {"include_linear": False, "total_layers": 3}),
        "window_dropped": (window, small, {"dropped_layers": (0, 2), "total_layers": 4}),
        "mixed_plan": (MaskPlan([Window(radius=2, reordered=True), TopK(block_size=5, k=2)]),
                       small, {"total_layers": 2}),
        "production_window_dropped": (MaskPlan.uniform(Window(radius=3780), large.heads), large,
                                      {"total_layers": 30, "dropped_layers": range(0, 30, 5)}),
    }


SPEEDUP_REPRS = {
    "window": "1.1824480369515011",
    "topk_static": "1.103448275862069",
    "window_no_linear": "3.1801242236024843",
    "window_dropped": "1.7239057239057238",
    "mixed_plan": "1.3111395646606914",
    "production_window_dropped": "9.345390040237096",
}


@pytest.mark.parametrize("name", sorted(SPEEDUP_REPRS))
def test_estimate_speedup_repr(name):
    from salad.analysis import estimate_speedup

    plan, grid, kwargs = speedup_cases()[name]
    assert repr(estimate_speedup(plan, grid, **kwargs)) == SPEEDUP_REPRS[name]


# ---------------------------------------------------------------------------
# Block backward: forward output, loss and every gradient of one seeded block


def grad_setup():
    """A seeded N=24 block (2x3x4 grid, 2 heads of 4 channels) with a random
    branch projection and LoRA adapters on every target, so every
    parameter path carries a nonzero gradient."""
    from salad.block import LoraUpdate, SaladParams
    from salad.masking import LatentGrid
    from salad.numerics import Rng

    rng = Rng(41)
    grid = LatentGrid(2, 3, 4, heads=2, head_dim=4)
    h = grid.channels
    weight = lambda: rng.normal((h, h)) * h**-0.5
    params = SaladParams(
        w_q=weight(), w_k=weight(), w_v=weight(), w_o=weight(), proj=weight(),
        gate_w=rng.normal((h,)) * h**-0.5, gate_b=-0.4,
        lora={t: LoraUpdate(a=rng.normal((2, h)), b=rng.normal((h, 2)), scale=0.5)
              for t in ("q", "k", "v", "o")},
    )
    mask = rng.uniform((grid.seq_len, grid.seq_len)) < 0.3
    np.fill_diagonal(mask, True)
    return rng.normal((grid.seq_len, h)), params, grid, mask


def grad_plans(mask):
    from salad.masking import Explicit, TopK, Window

    return {
        "window_r0": Window(radius=0),
        "window_n_minus_1": Window(radius=11),  # 2r+1 = N-1
        "window_full": Window(radius=12),  # 2r+1 = N+1: every pair
        "window_reordered": Window(radius=2, reordered=True),
        "topk_ragged": TopK(block_size=5, k=2),  # blocks of 5, 5, 5, 5 and 4
        "explicit_random": Explicit(mask),
    }


GRAD_DIGESTS = {
    "window_r0": "807b1c2068be7fd90c854966ef8e9e55c2402c04eb045fc97b0ec0e42b5242e0",
    "window_n_minus_1": "e66ed30a2ace977b87ed42db732b6baaf6ab634cdd7add7fc7a3f0f3edcb8976",
    "window_full": "a8512879340ebd42f493ec8804b3a76877cf3d1e23d9481476ab0d0edd659acf",
    "window_reordered": "34818e15e4605baa6a2672cf41fe7c8bbaadb70cb60deca9480d649fadbacc63",
    "topk_ragged": "35eeb37f444b4c235d02d4fb4c57eebd784bc5279d1aacd06b109b533ee8c2ed",
    "explicit_random": "d9b5efe4f9013cc97537911118115a52308fd528a86eff6875e0b0cb15e1d812",
}


@pytest.mark.parametrize("name", sorted(GRAD_DIGESTS))
def test_loss_grads_digest(name):
    from salad.block import salad_forward
    from salad.gradients import salad_loss_grads
    from salad.masking import MaskPlan

    x, params, grid, mask = grad_setup()
    plan = MaskPlan.uniform(grad_plans(mask)[name], grid.heads)
    out, _ = salad_forward(x, params, plan, grid)
    loss, grads = salad_loss_grads(x, params, plan, grid)
    blob = out.tobytes() + np.float64(loss).tobytes()
    for key in sorted(grads):
        blob += key.encode() + np.asarray(grads[key], dtype=np.float64).tobytes()
    assert sha256(blob) == GRAD_DIGESTS[name]


# ---------------------------------------------------------------------------
# Branch ranks of an N=512 calibrate run at three singular-value cutoffs

#: The perfbench N=512 grid: 8x8x8 latents, 2 heads of 16 channels, 4 layers.
RANK_GRID = ["--set", "grid.frames=8", "--set", "grid.height=8", "--set", "grid.width=8",
             "--set", "grid.heads=2", "--set", "grid.head_dim=16",
             "--set", "layers=4", "--set", "timesteps=5"]

#: (rank_sparse, rank_linear) per (layer, head) in report order. The looser
#: cutoffs land among the linear branch's singular values, so a solver whose
#: values drift would move these ranks.
RANK_PINS = {
    1e-6: [(16, 16)] * 8,
    1e-3: [(16, 16), (16, 16), (16, 15), (16, 16), (16, 16), (16, 15), (16, 16), (16, 16)],
    1e-1: [(16, 8), (16, 9), (16, 10), (16, 9), (16, 9), (16, 9), (16, 8), (16, 11)],
}


@pytest.mark.parametrize("rel_tol", sorted(RANK_PINS))
def test_branch_ranks_n512_calibrate(tmp_path, rel_tol):
    args = ["run", "--seed", "7", "--no-timestamp", *RANK_GRID, "--set", "mask.kind=calibrate",
            "--set", f"analysis.rank_rel_tol={rel_tol!r}", "--out", str(tmp_path)]
    assert main(args) == 0
    want = [{"layer": i // 2, "head": i % 2, "rank_sparse": s, "rank_linear": l, "head_dim": 16}
            for i, (s, l) in enumerate(RANK_PINS[rel_tol])]
    assert json.loads((tmp_path / "report.json").read_text())["ranks"] == want
