"""Seeded value-level damage: what corruption faults *do*.

Every function takes the RNG it draws from (a named stream owned by the
caller — the fault injector's ``corruption`` stream, a fuzz test's
seeded generator), so identical seeds produce identical damage
byte-for-byte.

Damage modes (``repro.faults.models.CORRUPTION_MODES``):

* ``bitflip`` — XOR one random bit of one float's IEEE-754 pattern (or
  one bit of an int).  Low mantissa bits give the *silent* corruptions
  this layer exists to catch; sign/exponent bits give the blowups the
  plausibility guard sees.
* ``perturb`` — multiply one value by ``1 + amplitude * u`` with
  ``u ~ U[-1, 1)`` (additive for zeros), the analog-glitch model.
* ``truncate`` — drop one field from a dict payload (or cut an array
  short): the torn half-write / short read.
"""

from __future__ import annotations

import copy
import struct
from typing import Any

import numpy as np

__all__ = ["corrupt_payload", "corrupt_array_inplace"]


def _flip_float_bit(value: float, bit: int) -> float:
    (pattern,) = struct.unpack("<Q", struct.pack("<d", float(value)))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", pattern ^ (1 << bit)))
    return flipped


def corrupt_array_inplace(
    arr: np.ndarray, mode: str, amplitude: float, rng: np.random.Generator
) -> str:
    """Damage one element of ``arr`` in place; returns a description.

    ``truncate`` has no in-place meaning for resident state, so it (and
    any unknown mode) degrades to ``perturb``; non-float dtypes are
    perturbed rather than bit-flipped.
    """
    flat = arr.reshape(-1)
    i = int(rng.integers(flat.size))
    if mode == "bitflip" and flat.dtype == np.float64:
        bit = int(rng.integers(64))
        flat[i] = _flip_float_bit(float(flat[i]), bit)
        return f"bitflip bit {bit} at [{i}]"
    u = 2.0 * float(rng.random()) - 1.0
    old = float(flat[i])
    flat[i] = old * (1.0 + amplitude * u) if old != 0.0 else amplitude * u
    return f"perturb x(1{amplitude * u:+.3g}) at [{i}]"


def _numeric_sites(obj: Any, path: tuple = ()) -> list[tuple[tuple, str]]:
    """Paths to corruptible values, in deterministic traversal order."""
    sites: list[tuple[tuple, str]] = []
    if isinstance(obj, np.ndarray):
        if obj.size:
            sites.append((path, "array"))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, np.integer)):
        sites.append((path, "int"))
    elif isinstance(obj, (float, np.floating)):
        sites.append((path, "float"))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            sites.extend(_numeric_sites(obj[key], path + (key,)))
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            sites.extend(_numeric_sites(item, path + (idx,)))
    return sites


def _get(obj: Any, path: tuple) -> Any:
    for step in path:
        obj = obj[step]
    return obj


def _set(obj: Any, path: tuple, value: Any) -> None:
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value


def corrupt_payload(
    payload: Any, mode: str, amplitude: float, rng: np.random.Generator
) -> tuple[Any, str | None]:
    """Return ``(damaged deep copy, description)``.

    The description is ``None`` — and the payload returned untouched —
    when there is nothing corruptible (e.g. a ``None`` heartbeat body).
    The original is never mutated: the sender's buffered copy must stay
    pristine so a retransmission delivers clean data.
    """
    damaged = copy.deepcopy(payload)
    if mode == "truncate":
        if isinstance(damaged, dict) and damaged:
            key = sorted(damaged, key=repr)[int(rng.integers(len(damaged)))]
            del damaged[key]
            return damaged, f"dropped field {key!r}"
        if isinstance(damaged, np.ndarray) and damaged.size > 1:
            cut = int(rng.integers(1, damaged.size))
            return damaged.reshape(-1)[:cut].copy(), f"truncated to {cut}"
        # Nothing with fields to drop: degrade to a value perturbation.
    sites = _numeric_sites(damaged)
    if not sites:
        return payload, None
    path, kind = sites[int(rng.integers(len(sites)))]
    where = "/".join(str(p) for p in path) or "<root>"
    if kind == "array":
        target = _get(damaged, path) if path else damaged
        detail = corrupt_array_inplace(target, mode, amplitude, rng)
        return damaged, f"{where}: {detail}"
    value = _get(damaged, path) if path else damaged
    if kind == "int":
        if mode == "bitflip":
            new: Any = int(value) ^ (1 << int(rng.integers(31)))
            detail = "bitflip"
        else:
            step = max(1, int(amplitude * max(abs(int(value)), 1)))
            new = int(value) + (step if rng.random() < 0.5 else -step)
            detail = f"perturb {new - int(value):+d}"
    else:
        if mode == "bitflip":
            bit = int(rng.integers(64))
            new = _flip_float_bit(float(value), bit)
            detail = f"bitflip bit {bit}"
        else:
            u = 2.0 * float(rng.random()) - 1.0
            old = float(value)
            new = old * (1.0 + amplitude * u) if old != 0.0 else amplitude * u
            detail = f"perturb x(1{amplitude * u:+.3g})"
    if not path:
        return new, f"{where}: {detail}"
    _set(damaged, path, new)
    return damaged, f"{where}: {detail}"

