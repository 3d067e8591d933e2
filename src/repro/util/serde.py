"""Round-trip serialization helpers for the config/result dataclasses.

Every configuration object in the experiment API (machine specs, cost
models, optimization sets, runtime configs, experiment specs) supports
``to_dict()`` / ``from_dict()`` built on these helpers, and the campaign
cache keys are content hashes of the *canonical JSON* rendering produced
by :func:`canonical_json` — so two configs that compare equal always hash
to the same cache key, in any process, on any platform (Python's builtin
``hash()`` is salted per process and must never reach disk).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any, Mapping, Type, TypeVar

T = TypeVar("T")

_NAN_SENTINEL = "NaN"


def flat_to_dict(obj: Any) -> dict:
    """Dataclass -> dict for *flat* dataclasses (scalar fields only)."""
    if not is_dataclass(obj):
        raise TypeError(f"expected a dataclass instance, got {type(obj)!r}")
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def flat_from_dict(cls: Type[T], data: Mapping[str, Any]) -> T:
    """Inverse of :func:`flat_to_dict`; unknown keys raise.

    Missing keys fall back to the dataclass defaults, so configs stored
    by an older version stay loadable after a field gains a default.
    """
    if not is_dataclass(cls):
        raise TypeError(f"expected a dataclass type, got {cls!r}")
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(names)}"
        )
    return cls(**dict(data))


def _sanitize(obj: Any) -> Any:
    """Replace non-finite floats so strict JSON round-trips them."""
    if isinstance(obj, float):
        return _NAN_SENTINEL if obj != obj else obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def desanitize_float(v: Any) -> float:
    """Inverse of the NaN sentinel mapping for a single float field."""
    return float("nan") if v == _NAN_SENTINEL else float(v)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, tight separators, exact floats.

    ``json`` renders floats with ``repr``, which round-trips IEEE doubles
    exactly; with sorted keys and no whitespace drift, equal values always
    produce byte-identical documents — the property the result store and
    the campaign determinism tests rely on.  NaN (legal in e.g. a
    :class:`~repro.profiler.trace.CommRecord` that never completed) is
    mapped to a sentinel string because strict JSON has no NaN.
    """
    return json.dumps(
        _sanitize(obj),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def content_key(obj: Any) -> str:
    """Stable content hash (sha256 hex) of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
