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

What a run repeats is encoded once, in tables bounded by ``_TABLE_CAP``:
the bounded key-order table keeps a halo dict's sorted keys and their
bytes, per key tuple, and the array-head table each (dtype, shape)'s head.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable

import numpy as np

__all__ = ["payload_checksum", "checkpoint_crc"]


#: Bound on each table below: a run sees a handful of dict key sets and
#: (dtype, shape) pairs; past the bound an entry is computed afresh, so
#: the tables cost a few kilobytes whatever passes through.
_TABLE_CAP = 256
#: The key-order table: per tuple of ``str`` dict keys, in insertion order,
#: the dict's head and each key with its bytes, in sorted order.
_KEY_ORDERS: dict[tuple[str, ...], tuple[bytes, tuple[tuple[str, bytes], ...]]] = {}
#: Tag, dtype name, shape and data tag of an array, per (dtype, shape):
#: formatting them costs more than hashing a halo-sized array.
_ARRAY_HEADS: dict[tuple[np.dtype, tuple[int, ...]], bytes] = {}
_pack_double = struct.Struct("<d").pack

Emit = Callable[[bytes], None]


def _array_head(arr: np.ndarray) -> bytes:
    """The head of ``arr``, entered in ``_ARRAY_HEADS`` while it has room."""
    head = b"a%b#%b@" % (str(arr.dtype).encode(), repr(arr.shape).encode())
    if len(_ARRAY_HEADS) < _TABLE_CAP:
        _ARRAY_HEADS[arr.dtype, arr.shape] = head
    return head


def _key_order(obj: dict) -> tuple[bytes, tuple[tuple[Any, bytes], ...]]:
    """The head of dict ``obj`` and its keys with their bytes, in sorted
    order; entered in ``_KEY_ORDERS`` while it has room, if every key is a
    ``str`` (keys that compare equal can encode apart: ``1``, ``1.0``)."""
    keys = tuple(obj)
    parts = []
    for key in sorted(keys):
        encoded: list[bytes] = []
        _walk(encoded.append, key)
        parts.append((key, b"".join(encoded)))
    order = (b"d%d" % len(keys), tuple(parts))
    if len(_KEY_ORDERS) < _TABLE_CAP and all(type(key) is str for key in keys):
        _KEY_ORDERS[keys] = order
    return order


def _walk(emit: Emit, obj: Any) -> None:
    """Serialise ``obj``'s structure through ``emit``: the bytes a fold
    would feed ``zlib.crc32`` one call at a time
    (``crc32(b, crc32(a)) == crc32(a + b)``).  The exact types a payload is
    made of come first, then every other supported type, most specific
    first (``bool`` is an ``int``); a subclass of an exact type re-enters
    as that type, so each kind of node has one encoding.  A dict encodes
    its exact ``float``, ``int`` and array values in its own loop, so a
    halo is walked in one frame."""
    cls = type(obj)
    if cls is float:
        emit(b"f" + _pack_double(obj))
    elif cls is int:
        emit(b"i%d" % obj)
    elif cls is np.ndarray:
        emit(_ARRAY_HEADS.get((obj.dtype, obj.shape)) or _array_head(obj))
        emit(obj.tobytes())  # C order, whatever the strides
    elif cls is dict:
        head, parts = _KEY_ORDERS.get(tuple(obj)) or _key_order(obj)
        emit(head)
        for key, part in parts:
            value = obj[key]
            kind = type(value)
            if kind is float:
                emit(part + b"f" + _pack_double(value))
            elif kind is int:
                emit(part + b"i%d" % value)
            elif kind is np.ndarray:
                head = _ARRAY_HEADS.get((value.dtype, value.shape))
                emit(part + (head or _array_head(value)))
                emit(value.tobytes())
            else:
                emit(part)
                _walk(emit, value)
    elif obj is None:
        emit(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        emit(b"b\x01" if obj else b"b\x00")
    elif isinstance(obj, (int, np.integer)):
        _walk(emit, int(obj))
    elif isinstance(obj, (float, np.floating)):
        _walk(emit, float(obj))
    elif isinstance(obj, str):
        emit(b"s" + obj.encode())
    elif isinstance(obj, bytes):
        emit(b"y" + obj)
    elif isinstance(obj, np.ndarray):
        _walk(emit, obj.view(np.ndarray))
    elif isinstance(obj, dict):
        _walk(emit, dict(obj))
    elif isinstance(obj, (list, tuple)):
        emit(b"l%d" % len(obj))
        for item in obj:
            _walk(emit, item)
    else:
        raise TypeError(f"payload_checksum cannot fingerprint {cls.__name__!r}")


def payload_checksum(payload: Any) -> int:
    """CRC32 fingerprint of an arbitrary message payload."""
    parts: list[bytes] = []
    _walk(parts.append, payload)
    return zlib.crc32(b"".join(parts))


def checkpoint_crc(
    snapshot: dict[str, Any], state_array: np.ndarray | None = None
) -> int:
    """CRC over the *numerical* content of a solver checkpoint.

    Checkpoints carry a few non-numeric helpers (an estimator
    snapshot) that cannot be fingerprinted structurally and
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
    # The walk is the one judge of what can be fingerprinted: a value it
    # rejects, at any depth, is left out with its key, and the dict head
    # counts the keys that stayed.
    parts: list[bytes] = [b""]
    emit = parts.append
    kept = 0
    for key in sorted(snapshot):
        if key in ("crc", "state"):
            continue
        mark = len(parts)
        try:
            _walk(emit, key)
            _walk(emit, snapshot[key])
            kept += 1
        except TypeError:
            del parts[mark:]
    parts[0] = b"d%d" % kept
    if state_array is not None:
        emit(b"S")
        _walk(emit, state_array)
    return zlib.crc32(b"".join(parts))
