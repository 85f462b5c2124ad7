import numpy as np
import pytest
from conftest import traced_peak

from salad.block import LoraUpdate, SaladParams
from salad.errors import ConfigError
from salad.masking import Explicit, MaskPlan, TopK, Window, build_window_mask
from salad.tensor_io import (
    mask_from_bytes,
    mask_to_bytes,
    params_from_bytes,
    params_to_bytes,
    read_plan,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_plan,
    write_tensor,
)


class TestTensorFormat:
    def test_round_trip_shapes(self, rng):
        for shape in [(3,), (2, 5), (2, 3, 4), (1, 2, 3, 4)]:
            x = rng.normal(shape)
            again = tensor_from_bytes(tensor_to_bytes(x))
            assert again.shape == x.shape
            assert np.array_equal(again, x)

    def test_header_layout(self):
        raw = tensor_to_bytes(np.zeros((2, 3)))
        assert raw[:4] == b"STNS"
        assert raw[4:8] == (1).to_bytes(4, "little")  # version
        assert raw[8:12] == (2).to_bytes(4, "little")  # rank
        assert raw[16:24] == (2).to_bytes(8, "little")  # first extent
        assert len(raw) == 16 + 2 * 8 + 6 * 8

    def test_bad_magic(self):
        with pytest.raises(ConfigError, match="magic"):
            tensor_from_bytes(b"XXXX" + bytes(20))

    def test_truncation(self, rng):
        raw = tensor_to_bytes(rng.normal((3, 3)))
        with pytest.raises(ConfigError):
            tensor_from_bytes(raw[:-8])

    @pytest.mark.parametrize("shape", [(2, 2), (40, 40)])
    def test_rank_field_overrunning_the_file(self, shape):
        # Rank 200 needs 1600 bytes of extents: a 2x2 payload cannot hold
        # them, and a 40x40 payload of negative floats reads as extents
        # whose product overflows int64.
        raw = bytearray(tensor_to_bytes(np.full(shape, -0.3)))
        raw[8:12] = (200).to_bytes(4, "little")
        with pytest.raises(ConfigError):
            tensor_from_bytes(bytes(raw))

    def test_file_round_trip(self, rng, tmp_path):
        x = rng.normal((4, 4))
        write_tensor(x, tmp_path / "t.stns")
        assert np.array_equal(read_tensor(tmp_path / "t.stns"), x)


class TestMaskFormat:
    def test_round_trip_random(self, rng):
        for density in (0.0, 0.15, 0.5, 1.0):
            mask = rng.uniform((17, 17)) < density
            assert np.array_equal(mask_from_bytes(mask_to_bytes(mask)), mask)

    def test_round_trip_band(self):
        mask = build_window_mask(33, 4)
        assert np.array_equal(mask_from_bytes(mask_to_bytes(mask)), mask)

    def test_header_and_row_runs(self):
        mask = np.array([[True, True, False], [False, True, False], [False, False, True]])
        raw = mask_to_bytes(mask)
        assert raw[:4] == b"SMSK"
        assert raw[4:6] == (1).to_bytes(2, "little")
        assert raw[6:10] == (3).to_bytes(4, "little")
        runs = np.frombuffer(raw[10:], dtype="<u4").tolist()
        # rows encode alternating false/true runs starting with false
        assert runs == [0, 2, 1, 1, 1, 1, 2, 1]

    def test_trailing_bytes_rejected(self):
        raw = mask_to_bytes(np.ones((2, 2), dtype=bool)) + b"\x00"
        with pytest.raises(ConfigError):
            mask_from_bytes(raw)

    def test_overrun_rejected(self):
        good = mask_to_bytes(np.ones((2, 2), dtype=bool))
        bad = good[:10] + (5).to_bytes(4, "little") + good[14:]
        with pytest.raises(ConfigError):
            mask_from_bytes(bad)

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError):
            mask_to_bytes(np.ones((2, 3), dtype=bool))

    def test_row_count_past_payload_rejected_before_allocating(self):
        """A header claiming 4,096 rows over a 2-row payload is refused
        before the 16 MiB mask is allocated."""
        good = mask_to_bytes(np.ones((2, 2), dtype=bool))
        bad = good[:6] + (4096).to_bytes(4, "little") + good[10:]

        def refused():
            with pytest.raises(ConfigError, match="cannot hold 4096 rows"):
                mask_from_bytes(bad)

        assert traced_peak(refused) < 1 << 20


class TestParamsBundle:
    def _params(self, rng, variant="shared", lora=False):
        h = 6
        adapters = {}
        if lora:
            adapters = {"q": LoraUpdate(a=rng.normal((2, h)), b=rng.normal((h, 2)), scale=0.25),
                        "o": LoraUpdate(a=rng.normal((2, h)), b=rng.normal((h, 2)), scale=0.5)}
        return SaladParams(
            w_q=rng.normal((h, h)), w_k=rng.normal((h, h)), w_v=rng.normal((h, h)),
            w_o=rng.normal((h, h)), proj=rng.normal((h, h)),
            gate_w=rng.normal((h,)), gate_b=-0.75,
            lora=adapters, gate_activation="tanh", gate_constant=0.4,
            lambda_override=0.9, dropped=False, gate_detached=True,
            variant=variant,
            w_q_lin=rng.normal((h, h)) if variant == "non_shared" else None,
            w_k_lin=rng.normal((h, h)) if variant == "non_shared" else None,
            w_v_lin=rng.normal((h, h)) if variant == "non_shared" else None,
        )

    def test_round_trip_shared_with_lora(self, rng):
        p = self._params(rng, lora=True)
        q = params_from_bytes(params_to_bytes(p, seed=7))
        assert np.array_equal(q.w_q, p.w_q)
        assert np.array_equal(q.proj, p.proj)
        assert q.gate_b == p.gate_b
        assert q.gate_activation == "tanh" and q.lambda_override == 0.9 and q.gate_detached
        assert set(q.lora) == {"q", "o"}
        assert q.lora["q"].scale == 0.25
        assert np.array_equal(q.lora["o"].b, p.lora["o"].b)

    def test_round_trip_non_shared(self, rng):
        p = self._params(rng, variant="non_shared")
        q = params_from_bytes(params_to_bytes(p))
        assert q.variant == "non_shared"
        assert np.array_equal(q.w_v_lin, p.w_v_lin)

    def test_header_is_one_json_line(self, rng):
        import json

        raw = params_to_bytes(self._params(rng), seed=3)
        header = json.loads(raw[: raw.find(b"\n")].decode())
        assert header["format"] == "salad-params" and header["seed"] == 3
        assert header["matrices"][:4] == ["w_q", "w_k", "w_v", "w_o"]

    def test_deterministic_bytes(self, rng):
        p = self._params(rng, lora=True)
        assert params_to_bytes(p, seed=1) == params_to_bytes(p, seed=1)

    def test_truncation_and_trailing(self, rng):
        raw = params_to_bytes(self._params(rng))
        with pytest.raises(ConfigError, match="truncated"):
            params_from_bytes(raw[:-4])
        with pytest.raises(ConfigError, match="trailing"):
            params_from_bytes(raw + b"\x00" * 8)

    def test_bad_header(self):
        with pytest.raises(ConfigError):
            params_from_bytes(b"not json\npayload")
        with pytest.raises(ConfigError):
            params_from_bytes(b'{"format": "other"}\n')


class TestPlanDocument:
    def test_round_trip_all_kinds(self, rng, tmp_path):
        n = 9
        mask = np.eye(n, dtype=bool) | (rng.uniform((n, n)) < 0.3)
        plan = MaskPlan([
            Window(radius=3),
            Window(radius=1, reordered=True),
            TopK(block_size=4, k=2),
            Explicit(mask),
        ])
        path = tmp_path / "plan.json"
        write_plan(plan, path)
        assert (tmp_path / "plan_h3.smsk").is_file()
        again = read_plan(path)
        assert again[0] == Window(radius=3)
        assert again[1] == Window(radius=1, reordered=True)
        assert again[2] == TopK(block_size=4, k=2)
        assert np.array_equal(again[3].mask, mask)

    def test_rejects_other_documents(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something"}')
        with pytest.raises(ConfigError):
            read_plan(path)
