"""Byte-level file formats. All multibyte fields are little-endian.

Tensor payloads ("STNS"): a 16-byte header (magic "STNS", u32 version,
u32 rank, u32 reserved zero), then rank u64 extents, then the row-major
float64 payload. Bit-exact across platforms.

Mask sidecars ("SMSK"): magic "SMSK", u16 version, u32 N, then each row
as alternating u32 run lengths starting with a false run (possibly 0),
summing to N.

Parameter bundles: one JSON header line (shapes, variant, activation,
lambda override, flags, seed) terminated by a newline, followed by the
raw float64 payload of every matrix in the header's declared order.

Plan documents: a JSON file with one record per head; explicit masks are
stored in SMSK sidecar files referenced by relative name. The same record
rule covers ``mask.per_head`` config entries (see :func:`parse_plan_record`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from .block import LoraUpdate, SaladParams
from .errors import ConfigError
from .masking import DEFAULT_TOPK, Explicit, HeadPlan, LatentGrid, MaskPlan, TopK, Window
from .numerics import Array

TENSOR_MAGIC = b"STNS"
MASK_MAGIC = b"SMSK"
TENSOR_VERSION = 1
MASK_VERSION = 1
BUNDLE_FORMAT = "salad-params"
PLAN_FORMAT = "salad-plan"


def dumps_json(doc: dict) -> str:
    """Canonical JSON used for every text artifact: 2-space indent, stable
    key order (insertion), repr-exact floats."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def record_to_dict(record) -> dict:
    """A record dataclass as a JSON object: its fields in declaration
    order, tuples as lists, and optional fields left unset omitted."""
    doc = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if value is None and f.default is None:
            continue
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def record_from_dict(cls, doc: dict):
    """Inverse of :func:`record_to_dict`. A missing required field raises
    ``KeyError`` naming it; unknown keys are ignored."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in doc:
            kwargs[f.name] = doc[f.name]
        elif f.default is dataclasses.MISSING:
            raise KeyError(f.name)
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Tensors


def tensor_to_bytes(x: Array) -> bytes:
    x = np.ascontiguousarray(x, dtype=np.float64)
    header = TENSOR_MAGIC + struct.pack("<III", TENSOR_VERSION, x.ndim, 0)
    extents = struct.pack(f"<{x.ndim}Q", *x.shape)
    return header + extents + x.astype("<f8").tobytes()


def tensor_from_bytes(raw: bytes) -> Array:
    if len(raw) < 16 or raw[:4] != TENSOR_MAGIC:
        raise ConfigError("not a tensor payload (bad magic)")
    version, rank, _ = struct.unpack("<III", raw[4:16])
    if version != TENSOR_VERSION:
        raise ConfigError(f"unsupported tensor payload version {version}")
    offset = 16 + 8 * rank
    if len(raw) < offset:
        raise ConfigError(f"tensor payload of {len(raw)} bytes cannot hold {rank} extents")
    shape = struct.unpack(f"<{rank}Q", raw[16:offset])
    expected = offset + 8 * math.prod(shape)
    if len(raw) != expected:
        raise ConfigError(f"tensor payload length {len(raw)} != expected {expected}")
    data = np.frombuffer(raw, dtype="<f8", offset=offset)
    return data.astype(np.float64).reshape(shape)


def write_tensor(x: Array, path: str | Path) -> None:
    Path(path).write_bytes(tensor_to_bytes(x))


def read_tensor(path: str | Path) -> Array:
    return tensor_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Boolean masks (run-length rows)


def mask_to_bytes(mask: Array) -> bytes:
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ConfigError(f"mask must be square, got {mask.shape}")
    n = mask.shape[0]
    chunks = [MASK_MAGIC, struct.pack("<HI", MASK_VERSION, n)]
    for row in mask:
        runs = []
        current = False  # rows start with a false run, length 0 if row[0] is true
        length = 0
        for val in row:
            if bool(val) == current:
                length += 1
            else:
                runs.append(length)
                current = not current
                length = 1
        runs.append(length)
        chunks.append(struct.pack(f"<{len(runs)}I", *runs))
    return b"".join(chunks)


def mask_from_bytes(raw: bytes) -> Array:
    if len(raw) < 10 or raw[:4] != MASK_MAGIC:
        raise ConfigError("not a mask sidecar (bad magic)")
    version, n = struct.unpack("<HI", raw[4:10])
    if version != MASK_VERSION:
        raise ConfigError(f"unsupported mask sidecar version {version}")
    mask = np.zeros((n, n), dtype=bool)
    offset = 10
    for i in range(n):
        filled = 0
        value = False
        while filled < n:
            if offset + 4 > len(raw):
                raise ConfigError(f"mask sidecar truncated in row {i}")
            (run,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            if filled + run > n:
                raise ConfigError(f"mask sidecar row {i} overruns N={n}")
            if value:
                mask[i, filled : filled + run] = True
            filled += run
            value = not value
    if offset != len(raw):
        raise ConfigError("mask sidecar has trailing bytes")
    return mask


def write_mask(mask: Array, path: str | Path) -> None:
    Path(path).write_bytes(mask_to_bytes(mask))


def read_mask(path: str | Path) -> Array:
    return mask_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Mask plans


def write_plan(plan: MaskPlan, path: str | Path) -> None:
    path = Path(path)
    heads = []
    for i, entry in enumerate(plan.entries):
        if isinstance(entry, Window):
            heads.append({"head": i, "kind": "window", "radius": entry.radius,
                          "reordered": entry.reordered})
        elif isinstance(entry, TopK):
            heads.append({"head": i, "kind": "topk", "block_size": entry.block_size,
                          "k": entry.k})
        elif isinstance(entry, Explicit):
            sidecar = f"{path.stem}_h{i}.smsk"
            write_mask(entry.mask, path.with_name(sidecar))
            heads.append({"head": i, "kind": "explicit", "sidecar": sidecar})
        else:
            raise ConfigError(f"unknown plan entry {entry!r}")
    path.write_text(dumps_json({"format": PLAN_FORMAT, "version": 1, "heads": heads}))


def parse_plan_record(rec, where: str, sidecar_dir: Path | None = None) -> HeadPlan:
    """One per-head plan record, for plan files and ``mask.per_head`` alike.

    ``{"kind": "window", "radius": int, "reordered": bool = false}`` or
    ``{"kind": "topk", "block_size": int, "k": int = 4}``; with a
    ``sidecar_dir`` also ``{"kind": "explicit", "sidecar": str}``. Other
    keys (such as "head") are ignored. Integer fields must be JSON
    integers. Any violation raises :class:`ConfigError` naming ``where``.
    """
    if not isinstance(rec, dict):
        raise ConfigError(f"{where} must be an object, got {rec!r}")

    def typed(name: str, kind: type, default=None):
        if name not in rec:
            if default is None:
                raise ConfigError(f"{where} is missing {name!r}")
            return default
        if type(rec[name]) is not kind:
            raise ConfigError(f"{where}.{name} must be of JSON type {kind.__name__}, got {rec[name]!r}")
        return rec[name]

    kind = rec.get("kind")
    if kind == "window":
        return Window(radius=typed("radius", int), reordered=typed("reordered", bool, False))
    if kind == "topk":
        return TopK(block_size=typed("block_size", int), k=typed("k", int, DEFAULT_TOPK))
    if kind == "explicit" and sidecar_dir is not None:
        return Explicit(mask=read_mask(sidecar_dir / typed("sidecar", str)))
    allowed = "window, topk or explicit" if sidecar_dir is not None else "window or topk"
    raise ConfigError(f"{where}.kind must be {allowed}, got {kind!r}")


def read_plan(path: str | Path) -> MaskPlan:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"plan {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != PLAN_FORMAT:
        raise ConfigError(f"{path} is not a plan document")
    if not isinstance(doc.get("heads"), list):
        raise ConfigError(f"plan {path} has no list of head records")
    return MaskPlan([parse_plan_record(rec, f"plan {path} heads[{i}]", path.parent)
                     for i, rec in enumerate(doc["heads"])])


# ---------------------------------------------------------------------------
# Parameter bundles


#: SaladParams weight fields every bundle carries.
_BUNDLE_WEIGHTS = ("w_q", "w_k", "w_v", "w_o", "proj", "gate_w")

#: Scalar SaladParams fields the bundle header stores verbatim, in header order.
_BUNDLE_FLAGS = ("variant", "gate_activation", "gate_constant", "lambda_override", "dropped",
                 "gate_detached")


def params_to_bytes(params: SaladParams, seed: int | None = None) -> bytes:
    names = params.param_names()
    lora_meta = {target: {"rank": int(u.a.shape[0]), "scale": u.scale}
                 for target, u in sorted(params.lora.items())}

    header = {
        "format": BUNDLE_FORMAT,
        "version": 1,
        **{key: getattr(params, key) for key in _BUNDLE_FLAGS},
        "seed": seed,
        "lora": lora_meta,
        "matrices": names,
        "shapes": {name: list(params.param(name).shape) for name in names},
    }
    payload = b"".join(np.ascontiguousarray(params.param(n), dtype="<f8").tobytes() for n in names)
    return json.dumps(header, allow_nan=False).encode("utf-8") + b"\n" + payload


def params_from_bytes(raw: bytes) -> SaladParams:
    nl = raw.find(b"\n")
    if nl < 0:
        raise ConfigError("parameter bundle has no header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"parameter bundle header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != BUNDLE_FORMAT:
        raise ConfigError("not a parameter bundle")
    missing = [key for key in ("matrices", "shapes", *_BUNDLE_FLAGS) if key not in header]
    if missing:
        raise ConfigError(f"parameter bundle header is missing {missing[0]!r}")
    names, shapes = header["matrices"], header["shapes"]
    if not isinstance(names, list) or not isinstance(shapes, dict):
        raise ConfigError("parameter bundle header needs a \"matrices\" list and a \"shapes\" object")
    offset = nl + 1
    arrays: dict[str, Array] = {}
    for name in names:
        extents = shapes.get(name)
        if not isinstance(extents, list) or not all(type(e) is int and e >= 0 for e in extents):
            raise ConfigError(f"parameter bundle shape of {name!r} must be a list of "
                              f"non-negative integers, got {extents!r}")
        shape = tuple(extents)
        count = math.prod(shape)
        end = offset + 8 * count
        if end > len(raw):
            raise ConfigError(f"parameter bundle truncated in matrix {name!r}")
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=offset) \
            .astype(np.float64).reshape(shape)
        offset = end
    if offset != len(raw):
        raise ConfigError("parameter bundle has trailing bytes")

    lora_meta = header.get("lora", {})
    if not isinstance(lora_meta, dict) or not all(
            isinstance(meta, dict) and "scale" in meta for meta in lora_meta.values()):
        raise ConfigError("parameter bundle \"lora\" must map targets to objects with a \"scale\"")
    required = [*_BUNDLE_WEIGHTS, "gate_b",
                *(f"lora_{target}.{factor}" for target in lora_meta for factor in "ab")]
    absent = [name for name in required if name not in arrays]
    if absent:
        raise ConfigError(f"parameter bundle has no matrix {absent[0]!r}")
    if arrays["gate_b"].shape != (1,):
        raise ConfigError(f"parameter bundle shape of 'gate_b' must be [1], "
                          f"got {list(arrays['gate_b'].shape)}")
    lora = {target: LoraUpdate(a=arrays[f"lora_{target}.a"], b=arrays[f"lora_{target}.b"],
                               scale=meta["scale"])
            for target, meta in lora_meta.items()}
    return SaladParams(
        **{name: arrays[name] for name in _BUNDLE_WEIGHTS},
        gate_b=float(arrays["gate_b"][0]),
        lora=lora,
        **{key: header[key] for key in _BUNDLE_FLAGS},
        **{name: arrays.get(name) for name in ("w_q_lin", "w_k_lin", "w_v_lin")},
    )


def write_params(params: SaladParams, path: str | Path, seed: int | None = None) -> None:
    Path(path).write_bytes(params_to_bytes(params, seed))


def read_params(path: str | Path, grid: LatentGrid) -> SaladParams:
    """Read a parameter bundle and validate it against ``grid``."""
    params = params_from_bytes(Path(path).read_bytes())
    try:
        params.validate(grid)
    except ConfigError as exc:
        raise ConfigError(f"params bundle {path}: {exc}") from None
    return params
