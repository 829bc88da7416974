"""Structural CRC fingerprints for message payloads and checkpoints.

A payload here is whatever the runtime puts on the wire: ``None``,
scalars, strings, numpy arrays, and dicts/lists/tuples of those.  The
checksum walks that structure deterministically (dict keys sorted,
every node tagged with a type byte so ``[1]`` and ``(1,)`` and ``1``
cannot collide structurally) and folds everything through ``zlib.crc32``
— cheap, stdlib-only, and strong enough to catch the single-bit flips
and field truncations :class:`~repro.faults.models.PayloadCorruption`
injects.  This is corruption *detection*, not authentication: CRC32 is
the right tool against hardware upsets and the wrong one against an
adversary.

Floats are folded by their IEEE-754 bit pattern (``struct.pack('<d')``)
so the checksum distinguishes ``0.0``/``-0.0`` and every NaN payload a
bit flip can produce — ``repr`` would alias them.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable

import numpy as np

__all__ = ["payload_checksum", "checkpoint_crc"]


#: ``str(dtype).encode()`` per dtype seen: formatting the name costs
#: more than hashing a halo-sized array, and a run sees a handful.
_DTYPE_TAGS: dict[np.dtype, bytes] = {}


def _mix(crc: int, tag: bytes, data: bytes = b"") -> int:
    return zlib.crc32(data, zlib.crc32(tag, crc))


def _array(crc: int, obj: np.ndarray) -> int:
    dtype_tag = _DTYPE_TAGS.get(obj.dtype)
    if dtype_tag is None:
        dtype_tag = _DTYPE_TAGS[obj.dtype] = str(obj.dtype).encode()
    crc = _mix(crc, b"a", dtype_tag)
    crc = _mix(crc, b"#", repr(obj.shape).encode())
    return _mix(crc, b"@", np.ascontiguousarray(obj).tobytes())


def _dict(crc: int, obj: dict) -> int:
    crc = _mix(crc, b"d", str(len(obj)).encode())
    for key in sorted(obj):
        crc = _update(_update(crc, key), obj[key])
    return crc


def _sequence(crc: int, obj: Any) -> int:
    crc = _mix(crc, b"l", str(len(obj)).encode())
    for item in obj:
        crc = _update(crc, item)
    return crc


#: Leaf tags inline; the order matters (``bool`` is an ``int``
#: subclass).  ``_update`` walks this chain once per concrete type and
#: then dispatches through ``_HANDLERS``, so what a value costs does not
#: depend on how far down the chain its type sits.
_CHAIN: tuple[tuple[Any, Callable[[int, Any], int]], ...] = (
    (type(None), lambda crc, obj: _mix(crc, b"N")),
    ((bool, np.bool_), lambda crc, obj: _mix(crc, b"b", b"\x01" if obj else b"\x00")),
    ((int, np.integer), lambda crc, obj: _mix(crc, b"i", str(int(obj)).encode())),
    (
        (float, np.floating),
        lambda crc, obj: _mix(crc, b"f", struct.pack("<d", float(obj))),
    ),
    (str, lambda crc, obj: _mix(crc, b"s", obj.encode())),
    (bytes, lambda crc, obj: _mix(crc, b"y", obj)),
    (np.ndarray, _array),
    (dict, _dict),
    ((list, tuple), _sequence),
)
_HANDLERS: dict[type, Callable[[int, Any], int]] = {}


def _resolve(cls: type) -> Callable[[int, Any], int]:
    for bases, handler in _CHAIN:
        if issubclass(cls, bases):
            return handler
    raise TypeError(f"payload_checksum cannot fingerprint {cls.__name__!r}")


def _update(crc: int, obj: Any) -> int:
    cls = type(obj)
    handler = _HANDLERS.get(cls)
    if handler is None:
        handler = _HANDLERS[cls] = _resolve(cls)
    return handler(crc, obj)


def payload_checksum(payload: Any) -> int:
    """CRC32 fingerprint of an arbitrary message payload."""
    return _update(0, payload)


def checkpoint_crc(
    snapshot: dict[str, Any], state_array: np.ndarray | None = None
) -> int:
    """CRC over the *numerical* content of a solver checkpoint.

    Checkpoints carry a few non-numeric helpers (a deep-copied
    estimator object) that cannot be fingerprinted structurally and
    cannot be corrupted by :class:`~repro.faults.models.StateCorruption`
    either — only the keys that hold plain values and arrays enter the
    CRC.  The key list itself is part of the fingerprint, so a
    truncated snapshot (a missing field) is detected too.

    The ``"state"`` entry is usually an opaque problem-state object, so
    it never enters the generic walk; the caller passes its backing
    array via ``state_array`` (:meth:`repro.problems.base.Problem.
    state_array`) — exactly the values in-memory corruption can poison.
    Stamp and verify must pass the same view or neither.
    """
    content = {
        key: value
        for key, value in snapshot.items()
        if key not in ("crc", "state") and _fingerprintable(value)
    }
    crc = _update(0, content)
    if state_array is not None:
        crc = _update(_mix(crc, b"S"), state_array)
    return crc


def _fingerprintable(value: Any) -> bool:
    if value is None or isinstance(
        value,
        (bool, int, float, str, bytes, np.bool_, np.integer, np.floating, np.ndarray),
    ):
        return True
    if isinstance(value, dict):
        return all(_fingerprintable(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_fingerprintable(v) for v in value)
    return False
