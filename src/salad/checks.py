"""The oracle suite behind ``salad check``.

Each check pits a production path against an independently coded
reference: the streaming linear branch against the quadratic form, the
masked sparse path against dense attention with the realized mask, the
whole block against a from-scratch composition, selections and
percentiles against brute-force scans, and every gradient against
central differences. The acceptance test module runs exactly these
checks at their stated tolerances.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from collections.abc import Callable
from time import monotonic

import numpy as np

from .analysis import (GateRecord, estimate_speedup, gate_percentiles, layer_mean_gates,
                       layer_method_flops, percentile, plan_branch_drop, plan_sparsity_stats)
from .block import (
    LoraUpdate,
    SaladParams,
    added_param_count,
    compute_gate,
    head_slices,
    salad_forward,
    sparse_head_attention,
)
from .config import RunConfig, config_from_dict
from .errors import BlockCountError, ConfigError
from .gradients import gradcheck_salad, salad_loss_grads
from .linear_attention import (
    EPSILON,
    RopeConfig,
    _check_qkv,
    linear_attention_streaming,
    rope3d_rotate,
)
from .masking import (
    DEFAULT_CALIBRATION_DELTA,
    DEFAULT_TOPK,
    Explicit,
    LatentGrid,
    MaskPlan,
    TopK,
    Window,
    _window_row_sum_holds,
    calibrate_window,
    invert_permutation,
    select_topk_blocks,
    st_reorder_permutation,
    window_attended_pairs,
)
from .numerics import Array, Rng, matmul, relu
from .runner import run_pipeline
from .tensor_io import dumps_json, record_to_dict


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float | None
    detail: str
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        err = "" if self.max_err is None else f" max_err={self.max_err:.3e}"
        return f"[{status}] {self.name}:{err} {self.detail} ({self.elapsed_s:.2f}s)"


#: An oracle's failure messages and the worst error it measured.
Outcome = tuple[list[str], float | None]

#: ``salad check`` name -> registered check, in definition order.
ALL_CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _check(list_name: str, summary: str):
    """Register an oracle in ``ALL_CHECKS`` under ``list_name``, timed. Its
    result is named after the function less ``check_``, passes when the
    oracle returns no failure, and details the failures joined by "; ",
    or ``summary`` when they carry no text. An oracle that raises fails,
    its detail naming the exception, so every check ends in a verdict; the
    registered check's ``__wrapped__`` still raises, traceback and all."""
    def register(oracle: Callable[[], Outcome]) -> Callable[[], CheckResult]:
        @functools.wraps(oracle)
        def check() -> CheckResult:
            t0 = monotonic()
            try:
                failures, max_err = oracle()
            except Exception as exc:  # a verdict like any other, not a traceback
                failures, max_err = [f"raised {type(exc).__name__}: {exc}"], None
            return CheckResult(oracle.__name__.removeprefix("check_"), not failures, max_err,
                               "; ".join(failures) or summary, monotonic() - t0)

        ALL_CHECKS[list_name] = check
        return check

    return register


def _fail_unless(held: bool) -> list[str]:
    """The failures of an oracle that compares one tolerance: one without
    text when it missed, so its FAIL line carries the summary too."""
    return [] if held else [""]


# ---------------------------------------------------------------------------
# Reference implementations (built on plain numpy, not the production paths)


def dense_attention_ref(q: Array, k: Array, v: Array, mask: Array) -> Array:
    """Dense scaled softmax attention with a boolean mask, plain numpy."""
    logits = (q @ k.T) / math.sqrt(q.shape[1])
    shifted = np.where(mask, logits - np.where(mask, logits, -np.inf).max(axis=1)[:, None], 0.0)
    weights = np.exp(shifted) * mask
    return (weights / weights.sum(axis=1)[:, None]) @ v


def full_attention_ref(q: Array, k: Array, v: Array) -> Array:
    """Unmasked scaled softmax attention; the full-attention formula as-is."""
    logits = matmul(q, k.T) * (1.0 / math.sqrt(q.shape[1]))
    shifted = logits - logits.max(axis=1)[:, None]
    weights = np.exp(shifted)
    attn = weights / weights.sum(axis=1)[:, None]
    return matmul(attn, v)


def naive_linear_ref(q: Array, k: Array, v: Array) -> Array:
    """Quadratic-form ReLU linear attention with an explicit query loop."""
    fq = np.maximum(q, 0.0)
    fk = np.maximum(k, 0.0)
    out = np.zeros_like(v)
    for i in range(q.shape[0]):
        w = fk @ fq[i]
        out[i] = (w @ v) / (w.sum() + EPSILON)
    return out


def build_window_mask(n: int, radius: int) -> Array:
    """Boolean band mask: true where |i - j| <= radius, built from boolean
    (N, N) arrays only."""
    if radius < 0:
        raise ConfigError("window radius must be >= 0")
    idx = np.arange(n)
    return (idx[None, :] >= idx[:, None] - radius) & (idx[None, :] <= idx[:, None] + radius)


def topk_blocks_ref(q: Array, k: Array, block_size: int, top_k: int) -> list[list[int]]:
    """Brute-force top-k block selection: every (query block, key block)
    pair scored by the dot product of the two block means, each query
    block's key blocks ranked by a stable sort of the negated scores (ties
    to the lower block index), and its first ``top_k`` kept with the query
    block itself."""
    starts = np.arange(0, q.shape[0], block_size)
    sizes = (np.minimum(starts + block_size, q.shape[0]) - starts)[:, None]
    q_means, k_means = (np.add.reduceat(x, starts) / sizes for x in (q, k))
    ranked = np.argsort(-(q_means @ k_means.T), axis=1, kind="stable")
    keep = np.zeros((starts.size, starts.size), dtype=bool)
    np.put_along_axis(keep, ranked[:, :top_k], True, axis=1)
    keep[np.diag_indices(starts.size)] = True
    return [np.flatnonzero(row).tolist() for row in keep]


def linear_attention_naive(q: Array, k: Array, v: Array) -> Array:
    """Quadratic-form ReLU linear attention.

    Materializes the full pair-weight matrix relu(Q) relu(K)^T, normalizes
    each row by its sum plus EPSILON, and averages the values. Kept as the
    reference the streaming form is checked against.
    """
    _check_qkv(q, k, v)
    fq = relu(q)
    fk = relu(k)
    weights = matmul(fq, fk.T)
    denom = weights.sum(axis=1) + EPSILON
    return matmul(weights, v) / denom[:, None]


def _random_grid_params(rng: Rng, grid: LatentGrid, **overrides) -> SaladParams:
    d = grid.channels
    params = SaladParams(
        w_q=rng.normal((d, d)) * d**-0.5,
        w_k=rng.normal((d, d)) * d**-0.5,
        w_v=rng.normal((d, d)) * d**-0.5,
        w_o=rng.normal((d, d)) * d**-0.5,
        proj=rng.normal((d, d)) * d**-0.5,
        gate_w=rng.normal((d,)) * d**-0.5,
        gate_b=rng.normal(1)[0] * 0.5,
    )
    for key, value in overrides.items():
        setattr(params, key, value)
    return params


# ---------------------------------------------------------------------------
# Individual checks (numbers match the acceptance criteria)


@_check("linear_oracle", "streaming vs quadratic form on 100 instances, N<=256 d<=32")
def check_linear_oracle() -> Outcome:
    """Streaming linear attention equals the quadratic form, 100 instances."""
    rng = Rng(101)
    combos = [(n, d) for n in (16, 64, 256) for d in (8, 16, 32)]
    worst = 0.0
    for i in range(100):
        n, d = combos[i % len(combos)]
        q, k, v = (rng.normal((n, d)) for _ in range(3))
        naive = linear_attention_naive(q, k, v)
        stream, _ = linear_attention_streaming(q, k, v)
        scale = 1.0 + float(np.max(np.abs(naive)))
        worst = max(worst, float(np.max(np.abs(stream - naive))) / scale)
    return _fail_unless(worst < 1e-10), worst


@_check("sparse_oracle", "window/reordered/topk/explicit vs dense reference; full window == full attention exactly")
def check_sparse_oracle() -> Outcome:
    """Masked sparse path equals dense attention under the realized mask."""
    rng = Rng(202)
    grid = LatentGrid(frames=3, height=3, width=3, heads=4, head_dim=8)
    n, d = grid.seq_len, grid.head_dim
    explicit = build_window_mask(n, 3) | (rng.uniform((n, n)) < 0.2)
    np.fill_diagonal(explicit, True)
    entries = [Window(2), Window(1, reordered=True), TopK(block_size=4, k=3), Explicit(explicit)]
    perm = st_reorder_permutation(grid)
    worst = 0.0
    for entry in entries:
        q, k, v = (rng.normal((n, d)) for _ in range(3))
        out, info = sparse_head_attention(q, k, v, entry, grid)
        mask = info.keys.mask()
        if info.perm is not None:
            conj = np.zeros_like(mask)
            conj[np.ix_(perm, perm)] = mask  # same pairs, original order
            mask = conj
        ref = dense_attention_ref(q, k, v, mask)
        worst = max(worst, float(np.max(np.abs(out - ref))))

    # Full-window plan reproduces unmasked full attention to the bit.
    q, k, v = (rng.normal((n, d)) for _ in range(3))
    out, _ = sparse_head_attention(q, k, v, Window(radius=n), grid)
    full_err = float(np.max(np.abs(out - full_attention_ref(q, k, v))))
    return _fail_unless(worst <= 1e-12 and full_err == 0.0), max(worst, full_err)


@_check("composition", "block output vs independent full-attention + quadratic-branch + gate composition")
def check_composition() -> Outcome:
    """Whole block equals a from-scratch composition of its pieces."""
    rng = Rng(303)
    grid = LatentGrid(frames=2, height=2, width=2, heads=2, head_dim=6)
    n, d, h = grid.seq_len, grid.head_dim, grid.channels
    rope_cfg = RopeConfig.default(d)
    plan = MaskPlan.uniform(Window(radius=n), grid.heads)  # all-true window
    worst = 0.0
    for _ in range(5):
        params = _random_grid_params(rng, grid)
        x = rng.normal((n, h))
        out, _ = salad_forward(x, params, plan, grid, rope_cfg)

        q = x @ params.w_q
        k = x @ params.w_k
        v = x @ params.w_v
        coords = grid.coords()
        o_s = np.zeros_like(q)
        o_l = np.zeros_like(q)
        for s in head_slices(h, grid.heads):
            qh = rope3d_rotate(q[:, s], coords, rope_cfg)
            kh = rope3d_rotate(k[:, s], coords, rope_cfg)
            logits = (qh @ kh.T) / math.sqrt(d)
            w = np.exp(logits - logits.max(axis=1)[:, None])
            o_s[:, s] = (w / w.sum(axis=1)[:, None]) @ v[:, s]
            o_l[:, s] = naive_linear_ref(qh, kh, v[:, s])
        gate = float(np.mean(1.0 / (1.0 + np.exp(-(x @ params.gate_w + params.gate_b)))))
        ref = (o_s + gate * (o_l @ params.proj)) @ params.w_o
        worst = max(worst, float(np.max(np.abs(out - ref))))
    return _fail_unless(worst <= 1e-10), worst


@_check("permutation", "round trip, enumerated order, adjacency, conjugation")
def check_permutation() -> Outcome:
    """Round-trip identity, the enumerated 2x2x2 order, neighbor adjacency,
    and mask-conjugation equivalence of reordered attention."""
    failures = []
    for f in range(1, 9):
        for hh in range(1, 9):
            for ww in range(1, 9):
                g = LatentGrid(f, hh, ww, heads=1, head_dim=2)
                perm = st_reorder_permutation(g)
                if not np.array_equal(np.sort(perm), np.arange(g.seq_len)):
                    failures.append(f"not a bijection at {f}x{hh}x{ww}")
                if not np.array_equal(perm[invert_permutation(perm)], np.arange(g.seq_len)):
                    failures.append(f"round trip failed at {f}x{hh}x{ww}")
                if f == 1 and not np.array_equal(perm, np.arange(g.seq_len)):
                    failures.append(f"single frame not identity at {f}x{hh}x{ww}")

    g222 = LatentGrid(2, 2, 2, heads=1, head_dim=2)
    if st_reorder_permutation(g222).tolist() != [0, 4, 1, 5, 2, 6, 3, 7]:
        failures.append("2x2x2 permutation mismatch")

    grid = LatentGrid(4, 3, 3, heads=1, head_dim=2)
    perm = st_reorder_permutation(grid)
    new_pos = invert_permutation(perm)
    coords = grid.coords()
    for i in range(grid.seq_len):
        t, h, w = coords[i]
        if t + 1 < grid.frames:
            j = (t + 1) * grid.height * grid.width + h * grid.width + w
            if abs(int(new_pos[i]) - int(new_pos[j])) != 1:
                failures.append("temporal neighbors not adjacent")

    # Reordered attention == original-order attention under the conjugated mask.
    rng = Rng(404)
    grid_c = LatentGrid(3, 2, 2, heads=1, head_dim=8)
    n = grid_c.seq_len
    q, k, v = (rng.normal((n, grid_c.head_dim)) for _ in range(3))
    out, info = sparse_head_attention(q, k, v, Window(radius=2, reordered=True), grid_c)
    g = st_reorder_permutation(grid_c)
    conj = np.zeros((n, n), dtype=bool)
    conj[np.ix_(g, g)] = info.keys.mask()
    ref = dense_attention_ref(q, k, v, conj)
    err = float(np.max(np.abs(out - ref)))
    if err > 1e-12:
        failures.append(f"conjugation mismatch {err:.2e}")
    return failures, err


@_check("zero_init", "zero branch projection equals the sparse-only block on 20 random configs")
def check_zero_init() -> Outcome:
    """proj = 0 collapses the block onto the sparse-only path, 20 configs."""
    rng = Rng(505)
    worst = 0.0
    for i in range(20):
        grid = LatentGrid(frames=2, height=2, width=2, heads=1 + i % 3, head_dim=4 + 2 * (i % 2))
        n, h = grid.seq_len, grid.channels
        params = _random_grid_params(rng, grid, proj=np.zeros((h, h)))
        if i % 4 == 0:
            params.lambda_override = 0.7
        entry = Window(radius=1 + i % 3, reordered=bool(i % 2))
        plan = MaskPlan.uniform(entry, grid.heads)
        x = rng.normal((n, h))
        out, _ = salad_forward(x, params, plan, grid)
        ref, _ = salad_forward(x, dataclasses.replace(params, dropped=True), plan, grid)
        worst = max(worst, float(np.max(np.abs(out - ref))))
    return _fail_unless(worst <= 1e-12), worst


@_check("gate", "range on 10^4 inputs, exact 0.5 point, affine in the constant gate")
def check_gate() -> Outcome:
    """Gate range, the exact sigmoid(0) = 0.5 point, and affinity in the
    constant-gate scalar."""
    rng = Rng(606)
    d = 12
    failures = []
    # 10^4 single-token inputs plus multi-token batches: the sigmoid gate
    # scalar stays strictly inside (0, 1).
    tokens = rng.normal((10_000, d)) * (1.0 + 2.0 * rng.uniform((10_000, 1)))
    w = rng.normal((d,)) * d**-0.5
    b = float(rng.normal(1)[0])
    singles = 1.0 / (1.0 + np.exp(-(tokens @ w + b)))
    sample = [compute_gate(tokens[i : i + 1], w, b, "sigmoid") for i in range(0, 10_000, 500)]
    if not (np.all(singles > 0.0) and np.all(singles < 1.0) and all(0.0 < g < 1.0 for g in sample)):
        failures.append("a sigmoid gate escaped (0, 1)")
    for _ in range(100):
        g = compute_gate(rng.normal((50, d)), rng.normal((d,)) * d**-0.5,
                         float(rng.normal(1)[0]), "sigmoid")
        if not 0.0 < g < 1.0:
            failures.append(f"batch gate {g} escaped (0, 1)")
    if compute_gate(rng.normal((64, d)), np.zeros(d), 0.0, "sigmoid") != 0.5:
        failures.append("zero gate weights did not give exactly 0.5")

    # Output affine in the constant gate: three-point colinearity.
    grid = LatentGrid(2, 2, 2, heads=2, head_dim=6)
    n, h = grid.seq_len, grid.channels
    params = _random_grid_params(rng, grid)
    plan = MaskPlan.uniform(Window(radius=2), grid.heads)
    x = rng.normal((n, h))
    worst = 0.0
    for mode in ("override", "constant"):
        outs = []
        for lam in (0.2, 1.4, 0.8):  # 0.8 is the midpoint of 0.2 and 1.4
            if mode == "override":
                p = dataclasses.replace(params, lambda_override=lam)
            else:
                p = dataclasses.replace(params, gate_activation="constant", gate_constant=lam)
            out, _ = salad_forward(x, p, plan, grid)
            outs.append(out)
        err = float(np.max(np.abs((outs[0] + outs[1]) / 2.0 - outs[2])))
        worst = max(worst, err)
    if worst > 1e-10:
        failures.append(f"three-point colinearity error {worst:.2e}")
    return failures, worst


@_check("rope", "isometry, origin identity, shift-invariant inner products")
def check_rope() -> Outcome:
    """Isometry, exact identity at the origin, and shift invariance of
    rotated inner products."""
    rng = Rng(707)
    cfg = RopeConfig.default(16)
    worst = 0.0
    failures = []

    x = rng.normal((40, 16))
    coords = np.stack([rng.raw(40) % 5, rng.raw(40) % 4, rng.raw(40) % 4], axis=1).astype(np.int64)
    y = rope3d_rotate(x, coords, cfg)
    pair_norms_in = np.sqrt(x[:, 0::2] ** 2 + x[:, 1::2] ** 2)
    pair_norms_out = np.sqrt(y[:, 0::2] ** 2 + y[:, 1::2] ** 2)
    iso_err = float(np.max(np.abs(pair_norms_in - pair_norms_out)))
    worst = max(worst, iso_err)
    if iso_err > 1e-12:
        failures.append(f"pair-norm isometry error {iso_err:.2e}")

    origin = rope3d_rotate(x, np.zeros((40, 3), dtype=np.int64), cfg)
    if not np.array_equal(origin, x):
        failures.append("origin rotation is not the exact identity")

    rel_err = 0.0
    for _ in range(50):
        q = rng.normal((1, 16))
        k = rng.normal((1, 16))
        p1 = (rng.raw(3) % 4).astype(np.int64)
        p2 = (rng.raw(3) % 4).astype(np.int64)
        shift = (rng.raw(3) % 3).astype(np.int64)
        dot = lambda a, b: float(np.sum(a * b))
        base = dot(rope3d_rotate(q, p1[None, :], cfg), rope3d_rotate(k, p2[None, :], cfg))
        moved = dot(rope3d_rotate(q, (p1 + shift)[None, :], cfg),
                    rope3d_rotate(k, (p2 + shift)[None, :], cfg))
        rel_err = max(rel_err, abs(base - moved))
    worst = max(worst, rel_err)
    if rel_err > 1e-9:
        failures.append(f"relative-position invariance error {rel_err:.2e}")
    return failures, worst


@_check("topk", "brute-force ranking on 100 instances; k=all is full attention; default k=4")
def check_topk() -> Outcome:
    """Selected blocks equal :func:`topk_blocks_ref`'s brute-force ranking
    (one stable sort of every block pair's score) on 100 seeded instances;
    k = block count is full attention; the default k is 4."""
    rng = Rng(808)
    failures = []
    for i in range(100):
        b = (2, 4, 8)[i % 3]
        n = int(8 + (rng.raw(1)[0] % 121))  # 8..128
        d = 8
        q, k = rng.normal((n, d)), rng.normal((n, d))
        top_k = 1 + int(rng.raw(1)[0] % ((n + b - 1) // b))
        if select_topk_blocks(q, k, b, top_k) != topk_blocks_ref(q, k, b, top_k):
            failures.append(f"selection mismatch at instance {i}")
            break

    grid = LatentGrid(2, 2, 4, heads=1, head_dim=8)
    n = grid.seq_len
    q, k, v = (rng.normal((n, 8)) for _ in range(3))
    nb = (n + 3) // 4
    out, _ = sparse_head_attention(q, k, v, TopK(block_size=4, k=nb), grid)
    err = float(np.max(np.abs(out - full_attention_ref(q, k, v))))
    if err > 1e-12:
        failures.append(f"k = block count differs from full attention by {err:.2e}")
    try:
        select_topk_blocks(q, k, 4, nb + 1)
        failures.append("oversized k did not raise")
    except BlockCountError:
        pass
    if TopK(block_size=4).k != DEFAULT_TOPK or DEFAULT_TOPK != 4 or RunConfig().mask.k != 4:
        failures.append("default k is not 4")
    return failures, err


@_check("calibration", "greedy equals exhaustive scan; degenerate and vacuous cases; default delta 2.0")
def check_calibration() -> Outcome:
    """Greedy window pick equals an exhaustive first-qualifying scan."""
    rng = Rng(909)
    failures = []
    candidates = [1, 2, 4, 8, 16]
    for i in range(10):
        n, d = 24, 8
        delta = [0.001, 0.01, 0.05, 0.2, 2.0][i % 5]
        profiles = [tuple(rng.normal((n, d)) for _ in range(3)) for _ in range(2)]
        got = calibrate_window(profiles, candidates, delta)

        # Exhaustive scan with independently computed RSE at every candidate.
        full = [dense_attention_ref(q, k, v, np.ones((n, n), dtype=bool))
                for q, k, v in profiles]
        expected_radius, expected_qualified = candidates[-1], False
        for r in candidates:
            num = den = 0.0
            for (q, k, v), f in zip(profiles, full):
                sparse = dense_attention_ref(q, k, v, build_window_mask(n, r))
                num += float(np.sum((sparse - f) ** 2))
                den += float(np.sum(f**2))
            if num / den <= delta:
                expected_radius, expected_qualified = r, True
                break
        if (got.radius, got.qualified) != (expected_radius, expected_qualified):
            failures.append(f"instance {i}: got r={got.radius} want r={expected_radius}")

    # Identical key/value rows: outputs are mask-independent, RSE = 0.
    n = 16
    q = rng.normal((n, 4))
    k = np.tile(rng.normal((1, 4)), (n, 1))
    v = np.tile(rng.normal((1, 4)), (n, 1))
    degen = calibrate_window([(q, k, v)], candidates, delta=0.5)
    if degen.radius != candidates[0] or degen.rse > 1e-20:
        failures.append("degenerate profile did not select the smallest radius at ~zero RSE")
    vac = calibrate_window([(rng.normal((n, 4)),) * 3], candidates, delta=math.inf)
    if vac.radius != candidates[0]:
        failures.append("infinite threshold did not select the smallest radius")
    if DEFAULT_CALIBRATION_DELTA != 2.0 or RunConfig().mask.delta != 2.0:
        failures.append("default calibration threshold is not 2.0")
    return failures, None


def _window_counts_match(n: int, r: Array, closed: Array) -> bool:
    """Whether the band pair counts of an N-token sequence equal ``closed``
    for each radius in ``r``, counted row by row over every (radius, row)
    pair at once: row i attends keys max(i - r, 0) .. min(i + r, N - 1).
    The table is int16, which holds i + r < 2N for every N up to 16384."""
    i = np.arange(n, dtype=np.int16)
    r = r.astype(np.int16)[:, None]
    hi = np.add(i, r)
    np.minimum(hi, n - 1, out=hi)
    lo = np.subtract(i, r)
    np.maximum(lo, 0, out=lo)
    hi -= lo
    hi += 1
    return np.array_equal(hi.sum(axis=1, dtype=np.int32), closed)


@_check("window_counts", "closed form == exhaustive for N<=512; 10% density reports sparsity 0.90")
def check_window_counts() -> Outcome:
    """Closed-form band pair counts vs exhaustive counting: every row of
    every radius r < N for each N <= 512 as one (radius, row) table per N,
    and boolean band masks for N <= 64; then the aggregate-sparsity value
    at the ~10% density operating point."""
    failures = []
    for n in range(1, 513):
        r = np.arange(n)
        if not _window_counts_match(n, r, (2 * r + 1) * n - r * (r + 1)):
            failures.append(f"closed form mismatch at N={n}")
            break
    # Boolean-mask counting for every radius up to N = 64.
    for n in range(1, 65):
        for r in range(n):
            if int(build_window_mask(n, r).sum()) != window_attended_pairs(n, r):
                failures.append(f"mask count mismatch at N={n}, r={r}")
    if int(build_window_mask(512, 63).sum()) != window_attended_pairs(512, 63):
        failures.append("mask count mismatch at N=512")
    if window_attended_pairs(8, 1) != 22 or window_attended_pairs(1000, 50) != 98450:
        failures.append("frozen pair-count examples failed")

    grid = LatentGrid(frames=10, height=10, width=10, heads=2, head_dim=8)
    plan = MaskPlan.uniform(Window(radius=51), grid.heads)  # ~10% density at N=1000
    stats, aggregate = plan_sparsity_stats(plan, grid)
    counted = int(build_window_mask(1000, 51).sum())
    if counted != stats[0].attended_pairs:
        failures.append("N=1000 closed form disagrees with exhaustive count")
    err = abs(aggregate - 0.90)
    if err > 0.001:
        failures.append(f"aggregate sparsity {aggregate} not within 0.90 +/- 0.001")
    return failures, err


@_check("drop_pipeline", "sort-oracle match, exact branch-FLOP reduction, preferred label")
def check_drop_pipeline() -> Outcome:
    """Interval dropping matches a sort oracle and the FLOP model shrinks
    by exactly the dropped branches."""
    rng = Rng(111)
    layers, timesteps = 10, 6
    records = [
        GateRecord(layer, t, float(0.05 + 0.9 * rng.uniform(1)[0]))
        for layer in range(layers)
        for t in range(timesteps)
    ]
    plan = plan_branch_drop(records, "interval", lo=0.8, hi=1.0)
    means = layer_mean_gates(records)
    oracle = sorted(sorted(means, key=lambda l: means[l])[-2:])
    failures = []
    if list(plan.dropped_layers) != oracle or not plan.preferred:
        failures.append("interval(0.8, 1.0) disagrees with the sort oracle or lost its label")

    grid = LatentGrid(5, 4, 4, heads=2, head_dim=8)
    mask_plan = MaskPlan.uniform(Window(radius=8), grid.heads)
    base = estimate_speedup(mask_plan, grid, dropped_layers=(), total_layers=layers)
    after = estimate_speedup(mask_plan, grid, dropped_layers=plan.dropped_layers,
                             total_layers=layers)
    # Summation oracle: removing a branch deletes exactly its linear+proj+gate FLOPs.
    attended = [window_attended_pairs(grid.seq_len, 8)] * grid.heads
    on = layer_method_flops(attended, grid, dropped=False)["total"]
    off = layer_method_flops(attended, grid, dropped=True)["total"]
    full = layers * grid.heads * 4 * grid.seq_len**2 * grid.head_dim
    want_base = full / (layers * on)
    want_after = full / ((layers - 2) * on + 2 * off)
    flop_err = max(abs(base - want_base), abs(after - want_after))
    if flop_err > 1e-12 or not after > base:
        failures.append(f"FLOP accounting mismatch ({flop_err:.2e})")

    disjoint = plan_branch_drop(records, "interval", lo=0.0, hi=0.8)
    if set(disjoint.dropped_layers) & set(plan.dropped_layers):
        failures.append("adjacent intervals overlap")
    everything = plan_branch_drop(records, "interval", lo=0.0, hi=1.0)
    if list(everything.dropped_layers) != list(range(layers)):
        failures.append("interval(0, 1) did not drop every layer")
    return failures, flop_err


@_check("param_count", "shared 0 / proj H*D / proj+gate H*D + D + 1 bias / non-shared 4*H*D")
def check_param_count() -> Outcome:
    """Added-parameter accounting across the architecture variants."""
    dd, hh = 96, 96
    return _fail_unless(
        added_param_count("shared", dd, hh, with_proj=False, with_gate=False) == 0
        and added_param_count("shared", dd, hh, with_proj=True, with_gate=False) == hh * dd
        and added_param_count("shared", dd, hh, with_proj=True, with_gate=True) == hh * dd + dd + 1
        and added_param_count("non_shared", dd, hh, with_gate=False) == 4 * hh * dd
    ), None


@_check("percentiles", "interpolation matches the sort oracle and stays bracketed")
def check_percentiles() -> Outcome:
    """Percentile interpolation against a sort-based oracle."""
    rng = Rng(222)
    failures = []
    vals = np.sort(np.array([0.1, 0.2, 0.3, 0.4]))
    got = percentile(vals, 0.2)
    if not math.isclose(got, 0.16, rel_tol=0, abs_tol=1e-15) or not 0.1 < got < 0.2:
        failures.append(f"4-sample 20th percentile {got} not between 0.1 and 0.2")
    for _ in range(50):
        n = 1 + int(rng.raw(1)[0] % 40)
        sample = np.sort(rng.uniform(n))
        q = float(rng.uniform(1)[0])
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        want = sample[lo] + (sample[hi] - sample[lo]) * (pos - lo)
        if abs(percentile(sample, q) - want) > 1e-15:
            failures.append("interpolated percentile mismatch")
            break
        if not sample[0] - 1e-15 <= percentile(sample, q) <= sample[-1] + 1e-15:
            failures.append("percentile escaped the sample range")
            break
    const = [GateRecord(layer, 0, 0.37) for layer in range(6)]
    table = gate_percentiles(const)
    if any(abs(v - 0.37) > 1e-15 for v in table["per_timestep"][0]["values"]):
        failures.append("constant sample percentiles are not the constant")
    return failures, None


@_check("gradcheck", "all parameters pass central differences; structural zeros hold")
def check_gradients() -> Outcome:
    """Full finite-difference verification of the block gradients."""
    rng = Rng(333)
    grid = LatentGrid(frames=2, height=2, width=2, heads=2, head_dim=4)
    n, h = grid.seq_len, grid.channels
    failures = []

    lora = {
        t: LoraUpdate(a=rng.normal((2, h)), b=rng.normal((h, 2)), scale=0.5)
        for t in ("q", "k", "v", "o")
    }
    params = _random_grid_params(rng, grid, lora=lora)
    plan = MaskPlan([Window(radius=2), Window(radius=1, reordered=True)])
    x = rng.normal((n, h))
    reports = gradcheck_salad(x, params, plan, grid)
    worst = max(r.max_rel_err for r in reports)
    if not all(r.passed for r in reports):
        failed = [r.param for r in reports if not r.passed]
        failures.append(f"finite differences rejected {failed}")

    non_shared = _random_grid_params(
        rng, grid,
        variant="non_shared",
        w_q_lin=rng.normal((h, h)) * h**-0.5,
        w_k_lin=rng.normal((h, h)) * h**-0.5,
        w_v_lin=rng.normal((h, h)) * h**-0.5,
    )
    ns_reports = gradcheck_salad(x, non_shared, plan, grid)
    worst = max(worst, max(r.max_rel_err for r in ns_reports))
    if not all(r.passed for r in ns_reports):
        failures.append("non-shared variant failed finite differences")

    # Zero-init projection still receives a training signal.
    zero = _random_grid_params(rng, grid, proj=np.zeros((h, h)))
    _, grads = salad_loss_grads(x, zero, plan, grid)
    if float(np.max(np.abs(grads["proj"]))) <= 1e-12:
        failures.append("projection gradient vanished at zero init")

    dropped = dataclasses.replace(params, dropped=True)
    _, dgrads = salad_loss_grads(x, dropped, plan, grid)
    if np.any(dgrads["proj"]) or np.any(dgrads["gate_w"]) or dgrads["gate_b"] != 0.0:
        failures.append("dropped branch leaked gradients into proj or the gate")

    const = dataclasses.replace(params, gate_activation="constant", gate_constant=0.4)
    _, cgrads = salad_loss_grads(x, const, plan, grid)
    if np.any(cgrads["gate_w"]) or cgrads["gate_b"] != 0.0:
        failures.append("constant gate leaked gradients into the gate weights")

    # Detached gate: same forward value, X gradient equals the constant-gate one.
    detached = dataclasses.replace(params, gate_detached=True)
    _, det_grads = salad_loss_grads(x, detached, plan, grid)
    out, trace = salad_forward(x, detached, plan, grid)
    same_scalar = dataclasses.replace(params, gate_activation="constant", gate_constant=trace.gate)
    _, const_grads = salad_loss_grads(x, same_scalar, plan, grid)
    det_err = float(np.max(np.abs(det_grads["x"] - const_grads["x"])))
    if det_err > 1e-12:
        failures.append(f"detached-gate X gradient differs from constant-gate by {det_err:.2e}")
    if not np.any(det_grads["gate_w"]):
        failures.append("detached gate lost its own parameter gradients")

    # d(loss)/d(lambda) equals the directional derivative and central differences.
    lam = dataclasses.replace(params, lambda_override=0.6)
    _, lgrads = salad_loss_grads(x, lam, plan, grid)
    step = 1e-5
    hi_p = dataclasses.replace(params, lambda_override=0.6 + step)
    lo_p = dataclasses.replace(params, lambda_override=0.6 - step)
    hi_out, _ = salad_forward(x, hi_p, plan, grid)
    lo_out, _ = salad_forward(x, lo_p, plan, grid)
    fd_lambda = (float(np.sum(hi_out**2)) - float(np.sum(lo_out**2))) / (2 * step)
    lam_err = abs(fd_lambda - lgrads["lambda"]) / (abs(fd_lambda) + abs(lgrads["lambda"]) + 1e-12)
    if lam_err > 1e-8:
        failures.append(f"lambda gradient off by rel {lam_err:.2e}")

    return failures, worst


@_check("determinism", "two pipeline runs with one seed serialize identically")
def check_determinism() -> Outcome:
    """Two identical runs serialize to identical bytes (timestamp off)."""
    cfg = config_from_dict({
        "seed": 7,
        "timestamp": False,
        "layers": 2,
        "timesteps": 2,
        "grid": {"frames": 2, "height": 2, "width": 2, "heads": 2, "head_dim": 4},
        "mask": {"kind": "window", "radius": 2},
    })
    a = dumps_json(record_to_dict(run_pipeline(cfg)))
    b = dumps_json(record_to_dict(run_pipeline(cfg)))
    return _fail_unless(a == b), None


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _run_check(name: str) -> CheckResult:
    """Run one registered check by name; what a pool worker is sent."""
    return ALL_CHECKS[name]()


def run_checks(only: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and return one result per
    named check, in the named order.

    The calling process runs ``gradcheck`` when it is named, else the first
    named check. The others go, in registration order, to a forked process
    pool of ``min(len(others), usable CPUs)`` workers: the caller's own
    check is short, so a worker takes the CPU it frees. Which worker takes
    which of the others depends on timing, as the workers pull from one
    queue; the caller's check does not, so a trace of the calling process
    counts the same work every run. With one CPU, one check or no fork the
    caller runs them all. When a worker process dies the pool stops, and
    every check that had not returned is lost with it; each lost check then
    runs again alone in a fresh one-worker pool, so only a check whose own
    worker dies fails as lost. One that raised already failed in its
    wrapper.
    """
    names = list(ALL_CHECKS) if only is None else only
    if not names:
        raise ConfigError(f"no check named; expected one or more of {sorted(ALL_CHECKS)}")
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown check {unknown[0]!r}; expected one of {sorted(ALL_CHECKS)}")
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        raise ConfigError(f"check {repeated[0]!r} is named more than once")
    mine = "gradcheck" if "gradcheck" in names else names[0]
    rest = [n for n in ALL_CHECKS if n in names and n != mine]
    cpus = _usable_cpus()
    workers = min(len(rest), cpus) if cpus > 1 else 0
    if workers > 0:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 0
    if workers <= 0:
        return [_run_check(name) for name in names]

    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # The workers inherit the row-sum probe's verdict, so the caller can note
    # a fallback that their window lists take.
    _window_row_sum_holds()
    # Fork, not spawn: a worker starts without importing numpy again and
    # sees the registry as the caller holds it. The pool forks every worker
    # at the first submit, before it starts its own thread.
    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, mp_context=fork)
    try:
        futures = {name: pool.submit(_run_check, name) for name in rest}
        results = {mine: _run_check(mine)}
        lost = []
        for name in rest:
            try:
                results[name] = futures[name].result()
            except BrokenProcessPool:
                lost.append(name)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    for name in lost:  # the executor does not say whose worker died
        with ProcessPoolExecutor(1, mp_context=fork) as alone:
            try:
                results[name] = alone.submit(_run_check, name).result()
            except BrokenProcessPool:
                results[name] = CheckResult(name, False, None, "lost: a worker process died")
    return [results[name] for name in names]
