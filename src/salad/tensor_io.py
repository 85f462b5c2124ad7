"""File formats. All multibyte fields are little-endian.

Tensor payloads ("STNS"): a 16-byte header (magic "STNS", u32 version,
u32 rank, u32 reserved zero), then rank u64 extents, then the row-major
float64 payload. Bit-exact across platforms.

Mask sidecars ("SMSK"): magic "SMSK", u16 version, u32 N, then each row
as alternating u32 run lengths starting with a false run (possibly 0),
summing to N.

JSON documents (config, plans, bundle headers, manifests, reports) are
decoded by :func:`load_json` (UTF-8, finite numbers only) and typed by one
rule that never coerces, :func:`check_json`: a bool is not an int, an int
must be a JSON integer, and a float must be a finite number. Plans, bundle
headers and manifests carry ``"format"`` and ``"version": 1``
(:func:`check_header`). The config refuses unknown keys; the other
documents ignore them.

Parameter bundles: one JSON header line (shapes, variant, activation,
lambda override, flags, seed) terminated by a newline, followed by the
raw float64 payload of every matrix in the header's declared order.

Plan documents: a JSON file with one record per head; explicit masks are
stored in SMSK sidecar files referenced by relative name. The same record
rule covers ``mask.per_head`` config entries (see :func:`parse_plan_record`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import struct
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .block import LoraUpdate, SaladParams
from .errors import ConfigError
from .masking import Explicit, HeadPlan, LatentGrid, MaskPlan, TopK, Window
from .numerics import Array

TENSOR_MAGIC = b"STNS"
MASK_MAGIC = b"SMSK"
TENSOR_VERSION = 1
MASK_VERSION = 1
BUNDLE_FORMAT = "salad-params"
PLAN_FORMAT = "salad-plan"
#: The ``"version"`` every JSON document header carries.
DOCUMENT_VERSION = 1


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


def load_json(source: str | Path | bytes, what: str):
    """Decode one UTF-8 JSON document from a file path or raw bytes.

    Bad UTF-8, bad JSON and the non-finite numbers Python's parser would
    accept (``NaN``, ``Infinity``, ``1e999``; JSON has none) raise
    :class:`ConfigError` naming ``what``; a missing or unreadable file
    stays an ``OSError``.
    """
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    try:
        return json.loads(raw.decode("utf-8"), parse_float=_finite_number,
                          parse_constant=_finite_number)
    except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ConfigError(f"{what} is not valid UTF-8 JSON: {exc}") from None


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def check_json(value, schema, where: str) -> None:
    """Check a decoded JSON value against ``schema``: the one type rule.

    ``schema`` is a type (``int``, ``float``, ``bool``, ``str``, ``dict``,
    ``list``), a union, a ``list[T]``, ``tuple[T, ...]`` or ``dict[str, T]``
    generic with T any schema, or a dict of key -> schema: an object whose
    listed keys match, an absent key reading as null; other keys are
    ignored. A bool is not an int, an int must be a JSON integer, and a
    float is any finite number. A mismatch raises :class:`ConfigError`
    naming the dotted path; for a union, the first option's mismatch.
    """
    origin, args = typing.get_origin(schema), typing.get_args(schema)
    if origin is types.UnionType:
        for option in args[1:]:
            with contextlib.suppress(ConfigError):
                return check_json(value, option, where)
        return check_json(value, args[0], where)  # T of T | None names the mismatch
    if isinstance(schema, dict) and type(value) is dict:
        for key, item in schema.items():
            check_json(value.get(key), item, f"{where}.{key}")
        return
    elif origin is dict and type(value) is dict:
        for key, item in value.items():
            check_json(item, args[1], f"{where}.{key}")
        return
    elif origin in (list, tuple) and type(value) is list:
        for i, item in enumerate(value):
            check_json(item, args[0], f"{where}[{i}]")
        return
    elif schema is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return
    elif type(value) is schema:
        return
    raise ConfigError(f"{where} must be {_describe(schema)}, got {value!r}")


def _describe(schema) -> str:
    if schema is float:
        return "a finite number"
    if isinstance(schema, dict):
        return "an object"
    return (typing.get_origin(schema) or schema).__name__


@functools.cache
def _field_types(cls) -> dict:
    """A dataclass's resolved field annotations, looked up once per class."""
    return typing.get_type_hints(cls)


def record_from_dict(cls, doc, where: str = "", *, strict: bool = False):
    """Inverse of :func:`record_to_dict`, checked by :func:`check_json`.

    Every field present is checked against its annotation; a field whose
    annotation is a dataclass is built by this rule in turn. A missing
    field without a default raises :class:`ConfigError`. Unknown keys are
    ignored, or refused with ``strict`` (the run config's policy). Error
    messages name fields by their dotted path below ``where``.
    """
    check_json(doc, dict, where or cls.__name__)
    hints = _field_types(cls)
    prefix = f"{where}." if where else ""
    if strict:
        refuse_unknown_keys(doc, hints.keys(), prefix)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{where or cls.__name__} is missing {f.name!r}")
            continue
        value, hint = doc[f.name], hints[f.name]
        if dataclasses.is_dataclass(hint):
            value = record_from_dict(hint, value, prefix + f.name, strict=strict)
        else:
            check_json(value, hint, prefix + f.name)
        kwargs[f.name] = value
    return cls(**kwargs)


def refuse_unknown_keys(doc: dict, known, prefix: str) -> None:
    """The config's policy: a key not in ``known`` raises :class:`ConfigError`."""
    unknown = sorted(doc.keys() - set(known))
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}")


def check_header(doc, fmt: str, what: str) -> dict:
    """A document that is an object with ``"format": fmt`` and
    ``"version": 1``; otherwise :class:`ConfigError` naming ``what``."""
    if type(doc) is not dict or doc.get("format") != fmt:
        raise ConfigError(f"{what} is not a {fmt} document")
    if type(doc.get("version")) is not int or doc["version"] != DOCUMENT_VERSION:
        raise ConfigError(f"{what} has version {doc.get('version')!r}; only {DOCUMENT_VERSION} is supported")
    return doc


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
    if len(raw) < 10 + 4 * n:  # every row holds at least one run
        raise ConfigError(f"mask sidecar of {len(raw)} bytes cannot hold {n} rows")
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


#: Plan entries stored as records of their own fields, by their "kind".
_RECORD_KINDS = {Window: "window", TopK: "topk"}


def write_plan(plan: MaskPlan, path: str | Path) -> None:
    path = Path(path)
    heads = []
    for i, entry in enumerate(plan.entries):
        if isinstance(entry, Explicit):
            sidecar = f"{path.stem}_h{i}.smsk"
            write_mask(entry.mask, path.with_name(sidecar))
            heads.append({"head": i, "kind": "explicit", "sidecar": sidecar})
        elif type(entry) in _RECORD_KINDS:
            heads.append({"head": i, "kind": _RECORD_KINDS[type(entry)], **record_to_dict(entry)})
        else:
            raise ConfigError(f"unknown plan entry {entry!r}")
    path.write_text(dumps_json({"format": PLAN_FORMAT, "version": DOCUMENT_VERSION, "heads": heads}))


def parse_plan_record(rec, where: str, sidecar_dir: Path | None = None) -> HeadPlan:
    """One per-head plan record, for plan files and ``mask.per_head`` alike.

    ``{"kind": "window", ...}`` holds the fields of :class:`Window` and
    ``{"kind": "topk", ...}`` those of :class:`TopK`, with their defaults;
    with a ``sidecar_dir`` also ``{"kind": "explicit", "sidecar": str}``.
    Other keys (such as "head") are ignored. Any violation raises
    :class:`ConfigError` naming ``where``.
    """
    check_json(rec, dict, where)
    kind = rec.get("kind")
    for cls, name in _RECORD_KINDS.items():
        if kind == name:
            return record_from_dict(cls, rec, where)
    if kind == "explicit" and sidecar_dir is not None:
        check_json(rec.get("sidecar"), str, f"{where}.sidecar")
        return Explicit(mask=read_mask(sidecar_dir / rec["sidecar"]))
    allowed = "window, topk or explicit" if sidecar_dir is not None else "window or topk"
    raise ConfigError(f"{where}.kind must be {allowed}, got {kind!r}")


def read_plan(path: str | Path) -> MaskPlan:
    path = Path(path)
    doc = check_header(load_json(path, f"plan {path}"), PLAN_FORMAT, f"plan {path}")
    check_json(doc.get("heads"), list, f"plan {path}.heads")
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
        "version": DOCUMENT_VERSION,
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
    where = "parameter bundle header"
    header = check_header(load_json(raw[:nl], where), BUNDLE_FORMAT, where)
    check_json(header, {"matrices": list[str], "shapes": dict,
                        "lora": dict[str, {"rank": int, "scale": float}] | None,
                        **{key: _field_types(SaladParams)[key] for key in _BUNDLE_FLAGS}}, where)
    lora_meta = header.get("lora") or {}
    offset = nl + 1
    arrays: dict[str, Array] = {}
    for name in header["matrices"]:
        extents = header["shapes"].get(name)
        check_json(extents, list[int], f"{where}.shapes.{name}")
        if any(e < 0 for e in extents):
            raise ConfigError(f"{where}.shapes.{name} must hold non-negative extents, got {extents}")
        count = math.prod(extents)
        end = offset + 8 * count
        if end > len(raw):
            raise ConfigError(f"parameter bundle truncated in matrix {name!r}")
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=offset) \
            .astype(np.float64).reshape(extents)
        offset = end
    if offset != len(raw):
        raise ConfigError("parameter bundle has trailing bytes")

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
        **{key: header.get(key) for key in _BUNDLE_FLAGS},
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
