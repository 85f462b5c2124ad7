"""The brute-force references of the ``window_counts`` and ``topk`` oracles:
pinned to the loops they replaced, shown to fail on a wrong answer, and
shown to cover their whole range without calling production code."""

from collections import Counter

import numpy as np
import pytest

from salad import checks, masking
from salad.numerics import Rng

from conftest import chunked_window_counts, sorted_topk_blocks


def test_window_enumeration_matches_the_chunked_loop():
    for n in range(1, 513):
        assert checks._window_counts_match(n, np.arange(n), chunked_window_counts(n)), n


@pytest.mark.parametrize("n, radius", [(512, 511), (1, 0)])
def test_window_counts_fails_on_a_closed_form_one_pair_off(monkeypatch, n, radius):
    real = checks._window_counts_match

    def one_pair_off(size, r, closed):
        if size == n:
            closed = closed + (r == radius)
        return real(size, r, closed)

    monkeypatch.setattr(checks, "_window_counts_match", one_pair_off)
    result = checks.check_window_counts()
    assert not result.passed
    assert result.detail == f"closed form mismatch at N={n}"


def test_window_counts_checks_every_radius_of_every_length_once(monkeypatch):
    checked = Counter()
    real = checks._window_counts_match

    def recorded(n, r, closed):
        checked.update((n, int(radius)) for radius in r)
        return real(n, r, closed)

    monkeypatch.setattr(checks, "_window_counts_match", recorded)
    assert checks.check_window_counts().passed
    assert checked == Counter((n, r) for n in range(1, 513) for r in range(n))


def test_topk_reference_matches_the_sorted_ranking_on_the_check_instances(monkeypatch):
    instances = []
    real = checks.topk_blocks_ref
    monkeypatch.setattr(checks, "topk_blocks_ref", lambda *args: instances.append(args) or real(*args))
    assert checks.check_topk().passed
    assert len(instances) == 100
    for args in instances:
        assert real(*args) == sorted_topk_blocks(*args)


def _tie_inputs(kind, n, block_size):
    """Queries and keys whose block scores tie exactly: constant rows with
    exact block sums, or key blocks (the short last one included) that
    share one integer-valued row, so each block mean is that row."""
    if kind == "constant":
        return np.full((n, 8), 0.5), np.full((n, 8), -3.0)
    rng = Rng(n * 1000 + block_size)
    q, k = rng.normal((n, 8)), rng.normal((n, 8))
    row = np.array([1.0, -2.0, 3.0, 0.0, -1.0, 2.0, -3.0, 1.0])
    last = (n - 1) // block_size * block_size
    k[:block_size] = row
    k[last if kind == "first and last key blocks" else block_size:2 * block_size] = row
    return q, k


@pytest.mark.parametrize("kind", ["constant", "first two key blocks", "first and last key blocks"])
@pytest.mark.parametrize("n, block_size", [(1, 1), (8, 1), (16, 4), (25, 16), (37, 8), (64, 3),
                                           (100, 7), (128, 16), (7, 8), (12, 12), (20, 64)])
def test_topk_reference_breaks_ties_as_the_sorted_ranking(kind, n, block_size):
    q, k = _tie_inputs(kind, n, block_size)
    blocks = -(-n // block_size)
    for top_k in sorted({t for t in (1, 2, blocks - 1, blocks) if 1 <= t <= blocks}):
        want = sorted_topk_blocks(q, k, block_size, top_k)
        assert checks.topk_blocks_ref(q, k, block_size, top_k) == want, top_k


@pytest.mark.parametrize("keep", ["one block fewer", "no diagonal"])
def test_topk_fails_on_a_wrong_selection(monkeypatch, keep):
    real = checks.select_topk_blocks

    def wrong(q, k, block_size, top_k):
        if keep == "one block fewer":
            return real(q, k, block_size, max(top_k - 1, 1))
        return [[b for b in row if b != qb] for qb, row in enumerate(real(q, k, block_size, top_k))]

    monkeypatch.setattr(checks, "select_topk_blocks", wrong)
    result = checks.check_topk()
    assert not result.passed
    assert result.detail.startswith("selection mismatch at instance ")


def test_topk_reference_calls_no_production_ranking(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the reference reached production's ranking")

    for name in ("_block_means", "_topk_keep"):
        monkeypatch.setattr(masking, name, refuse)
    q, k = Rng(3).normal((37, 8)), Rng(4).normal((37, 8))
    with pytest.raises(AssertionError, match="production's ranking"):
        masking.select_topk_blocks(q, k, 4, 3)
    assert checks.topk_blocks_ref(q, k, 4, 3) == sorted_topk_blocks(q, k, 4, 3)
