"""Unit tests for the integrity primitives (repro.integrity)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.integrity import (
    checksum,
    checkpoint_crc,
    corrupt_array_inplace,
    corrupt_payload,
    payload_checksum,
)
from tests import oracles


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(autouse=True)
def cold_tables(monkeypatch):
    """Each test meets its keys and array shapes cold, and leaves the
    process-wide tables as it found them."""
    monkeypatch.setattr(checksum, "_KEY_ORDERS", {})
    monkeypatch.setattr(checksum, "_ARRAY_HEADS", {})


# ----------------------------------------------------------------------
# payload_checksum
# ----------------------------------------------------------------------
def test_checksum_is_deterministic_and_value_sensitive():
    payload = {"iteration": 12, "halo": np.arange(6, dtype=float), "k": "x"}
    assert payload_checksum(payload) == payload_checksum(payload)
    changed = {**payload, "iteration": 13}
    assert payload_checksum(changed) != payload_checksum(payload)


def test_checksum_sees_a_single_mantissa_bit():
    a = np.array([1.0, 2.0, 3.0])
    crc = payload_checksum(a)
    b = a.copy()
    # Flip the lowest mantissa bit of one element: the value changes by
    # one ulp — far below any numerical comparison, not below the CRC.
    b[1] = np.nextafter(b[1], np.inf)
    assert payload_checksum(b) != crc


def test_checksum_type_tags_prevent_structural_collisions():
    # list and tuple deliberately share the sequence tag; either is
    # distinct from a bare scalar.
    assert payload_checksum([1]) == payload_checksum((1,))
    assert payload_checksum([1]) != payload_checksum(1)
    assert payload_checksum(1) != payload_checksum(1.0)
    assert payload_checksum(True) != payload_checksum(1)
    assert payload_checksum(None) != payload_checksum(0)
    assert payload_checksum("ab") != payload_checksum(b"ab")
    assert payload_checksum({"a": 1, "b": 2}) == payload_checksum(
        {"b": 2, "a": 1}
    )


def test_checksum_distinguishes_float_bit_patterns():
    assert payload_checksum(0.0) != payload_checksum(-0.0)
    assert payload_checksum(float("nan")) == payload_checksum(float("nan"))


def test_checksum_array_shape_and_dtype_matter():
    a = np.arange(6, dtype=float)
    assert payload_checksum(a.reshape(2, 3)) != payload_checksum(a)
    assert payload_checksum(a.astype(np.float32)) != payload_checksum(a)


def test_checksum_treats_numpy_bool_as_bool():
    assert payload_checksum(np.bool_(True)) == payload_checksum(True)
    assert payload_checksum(np.bool_(False)) == payload_checksum(False)
    assert payload_checksum(np.bool_(True)) != payload_checksum(1)


def test_checksum_rejects_opaque_objects():
    with pytest.raises(TypeError, match="cannot fingerprint"):
        payload_checksum(object())


# Literal CRCs of every supported input type, recorded before the dtype
# tag became a table lookup: stored stamps must keep verifying.
PINNED_CHECKSUMS = [
    (None, 1130791706),
    (True, 1628777292),
    (False, 370285530),
    (7, 1297835806),
    (-3, 666702404),
    (np.int64(7), 1297835806),
    (np.int32(-3), 666702404),
    (1.5, 2742266376),
    (-0.0, 617115552),
    (np.float64(1.5), 2742266376),
    (np.float32(0.25), 4264428706),
    ("halo", 3683797915),
    (b"\x00\xff", 2304992576),
    (np.arange(4, dtype=np.float64), 1593971756),
    (np.arange(4, dtype=np.float32), 3647896579),
    (np.arange(6, dtype=np.int64).reshape(2, 3), 1423601098),
    (np.array([True, False]), 863818405),
    (np.zeros(3, dtype=np.complex128), 2979049313),
    (np.arange(3, dtype=np.uint8), 3889837307),
    ([1, 2.0, "x"], 2473731794),
    ((1, 2.0, "x"), 2473731794),
]


@pytest.mark.parametrize(
    "value,crc",
    PINNED_CHECKSUMS,
    ids=[f"{i}-{type(v).__name__}" for i, (v, _) in enumerate(PINNED_CHECKSUMS)],
)
def test_pinned_checksum_per_type(value, crc):
    assert payload_checksum(value) == crc


def test_pinned_halo_payload_and_checkpoint():
    halo = {
        "data": np.linspace(0.0, 1.0, 9),
        "position": 12,
        "estimate": 0.375,
        "iteration": 40,
    }
    assert payload_checksum(halo) == 3462284031
    snapshot = {
        "iteration": 40,
        "state": object(),
        "lo": 8,
        "hi": 20,
        "halo_left": np.linspace(1.0, 2.0, 9),
        "halo_right": None,
        "halo_iter_left": 39,
        "halo_iter_right": -1,
        "estimator": object(),
    }
    assert checkpoint_crc(snapshot) == 2890027763
    state = np.arange(24, dtype=float).reshape(12, 2)
    assert checkpoint_crc(snapshot, state) == 1085106295


def test_pinned_dispatch_order_subclasses_and_nesting():
    # Recorded before `_update` became a table keyed on `type(obj)`:
    # bool (and np.bool_) before int, subclasses resolved through the
    # same ordered chain, dict keys sorted at every depth.
    from collections import OrderedDict

    class MyInt(int):
        pass

    class MyDict(dict):
        pass

    assert payload_checksum(np.bool_(True)) == payload_checksum(True) == 1628777292
    assert payload_checksum(np.bool_(False)) == payload_checksum(False) == 370285530
    nested = {
        "b": {"z": 1, "a": [True, 1, 1.0, None]},
        "a": (np.bool_(False), np.int8(3), "k"),
    }
    reordered = {
        "a": (np.bool_(False), np.int8(3), "k"),
        "b": {"a": [True, 1, 1.0, None], "z": 1},
    }
    assert payload_checksum(nested) == payload_checksum(reordered) == 1297993226
    assert payload_checksum({2: "x", 1: "y"}) == 3095959235
    subclasses = [
        MyInt(5), MyDict(k=1), OrderedDict(k=1), np.float16(0.5), np.uint8(9),
        np.str_("s"),
    ]
    assert payload_checksum(subclasses) == 1465008750
    # Twice: the second walk takes the types the first one resolved.
    assert payload_checksum(subclasses) == 1465008750
    assert payload_checksum([{}, [], (), "", b""]) == 376584999
    assert payload_checksum(np.arange(12.0).reshape(3, 4)[:, ::2]) == 4093742221
    assert payload_checksum(np.array(2.5)) == 1593112329
    snapshot = {
        "iteration": 3,
        "nested": {"b": 1, "a": np.arange(3)},
        "flag": np.bool_(True),
        "opaque": object(),
        "mixed": [1, object()],
        "state": 5,
        "crc": 9,
    }
    assert checkpoint_crc(snapshot) == 2935641089
    assert checkpoint_crc(snapshot, np.ones((2, 3))) == 3631912676


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Literal CRCs of the shapes a one-pass walk (one parts list, one
# ``zlib.crc32``, key / dtype / shape bytes from tables) could get wrong,
# recorded while the walk still folded node by node.
_GRID = np.arange(24, dtype=np.float64).reshape(4, 6)
PINNED_SHAPES = {
    "noncontiguous-columns": (_GRID[:, ::2], 2107036452),
    "noncontiguous-transpose": (_GRID.T, 3145791661),
    "noncontiguous-reversed": (np.arange(6.0)[::-1], 3226516591),
    "zero-d-float": (np.array(2.5), 1593112329),
    "zero-d-int32": (np.array(7, dtype=np.int32), 733523558),
    "empty-array": (np.zeros(0), 2407595331),
    "empty-2d-array": (np.zeros((0, 3)), 1084508384),
    "empty-dict": ({}, 1720814832),
    "empty-list": ([], 2923955960),
    "empty-tuple": ((), 2923955960),
    "empty-str": ("", 453955339),
    "empty-bytes": (b"", 4225443349),
    "nested-empties": ({"a": {}, "b": [], "c": ()}, 4137767972),
    "int-keys": ({3: "x", 1: 2.5, 2: None}, 3439457606),
    "tuple-keys": ({(1, 2): "a", (0, 5): "b"}, 1850680011),
    "negative-zero-array": (np.array([0.0, -0.0]), 2093464362),
    "negative-zero-value": ({"v": -0.0}, 283391490),
    "positive-zero-value": ({"v": 0.0}, 4250711330),
    "nan-default": (float("nan"), 3585076120),
    "nan-quiet-payload": (_nan(0x7FF8000000000001), 419818246),
    "nan-signalling-payload": (_nan(0x7FF0000000000001), 3520880910),
    "nan-array": (
        np.array([_nan(0x7FF8000000000001), _nan(0x7FF0000000000001), float("nan")]),
        2791913069,
    ),
    "infinities": ([float("inf"), float("-inf")], 3278120486),
    "big-int": (2**70, 3812646665),
    "negative-int-value": ({"k": -12}, 619896309),
    "bool-and-none-values": ({"t": True, "f": False, "n": None}, 1764118432),
    "numpy-scalar-values": (
        {"a": np.float64(0.375), "b": np.int64(40), "c": np.float32(1.5)},
        3410999390,
    ),
    "halo-with-strided-data": (
        {
            "data": np.linspace(0.0, 1.0, 9)[::2],
            "position": 12,
            "estimate": 0.375,
            "iteration": 40,
        },
        95052992,
    ),
}


@pytest.mark.parametrize("name", PINNED_SHAPES)
def test_pinned_checksum_per_shape(name):
    value, crc = PINNED_SHAPES[name]
    assert payload_checksum(value) == crc
    # Warm: whatever the first walk resolved must give the same bytes.
    assert payload_checksum(value) == crc


def test_pinned_key_seen_cold_then_warm():
    payload = {"fresh_key_one": 1.0}
    assert ("fresh_key_one",) not in checksum._KEY_ORDERS
    assert payload_checksum(payload) == 2894636935
    assert payload_checksum(payload) == 2894636935


def test_pinned_more_distinct_keys_than_any_table_holds():
    # 300 distinct keys in one dict, then again: a bounded key table is
    # full part-way through, and a key past the bound must encode the
    # same as one inside it.
    ints = {f"key{i:04d}": i for i in range(300)}
    floats = {f"key{i:04d}": float(i) for i in range(300)}
    for _ in range(2):
        assert payload_checksum(ints) == 616889110
        assert payload_checksum(floats) == 302306337
    assert payload_checksum({"key0299": 299}) == payload_checksum(
        {"key0299": np.int64(299)}
    )
    assert payload_checksum({"fresh_key_one": 1.0}) == 2894636935


def test_pinned_nested_checkpoint_with_and_without_state_array():
    snapshot = {
        "iteration": 3,
        "lo": 0,
        "hi": 4,
        "halo_left": {"u": np.arange(3.0), "v": [np.arange(2.0), None]},
        "halo_right": (
            np.array(1.5),
            {"deep": {"deeper": np.ones((2, 2))[:, 0]}},
        ),
        "halo_iter_left": -1,
        "halo_iter_right": 7,
        "estimator": object(),
        "state": object(),
        "crc": 123,
        "opaque_nested": {"x": object()},
    }
    state = np.arange(8.0).reshape(4, 2)
    assert checkpoint_crc(snapshot) == 1851434091
    assert checkpoint_crc(snapshot, state) == 1059481559
    assert checkpoint_crc(snapshot, state[:, 1]) == 666298717
    assert checkpoint_crc(snapshot, np.zeros(0)) == 801840213
    assert checkpoint_crc({}) == payload_checksum({}) == 1720814832
    assert checkpoint_crc({}, np.zeros(2)) == 1547780875
    assert checkpoint_crc({"state": 1, "crc": 2}) == 1720814832


def test_one_crc32_call_per_fingerprint_and_bounded_tables(monkeypatch):
    calls = []
    crc32 = checksum.zlib.crc32
    monkeypatch.setattr(
        checksum.zlib, "crc32", lambda *args: calls.append(args) or crc32(*args)
    )
    halo = {
        "data": np.linspace(0.0, 1.0, 9),
        "position": 12,
        "estimate": 0.375,
        "iteration": 40,
    }
    assert payload_checksum(halo) == 3462284031
    assert payload_checksum([halo, (halo, {"nested": [halo]})]) is not None
    assert checkpoint_crc({"halo_left": halo, "lo": 1}, np.ones((2, 3))) is not None
    assert [len(args) for args in calls] == [1, 1, 1]
    # More distinct keys and shapes than the tables hold: they stop
    # growing at the cap, and the CRCs are the pinned ones either way.
    many = {f"key{i:04d}": np.zeros(i % 300) for i in range(600)}
    payload_checksum(many)
    assert len(checksum._KEY_ORDERS) <= checksum._TABLE_CAP
    assert len(checksum._ARRAY_HEADS) <= checksum._TABLE_CAP
    assert payload_checksum({f"key{i:04d}": i for i in range(300)}) == 616889110


# ----------------------------------------------------------------------
# payload_checksum against the node-by-node reference walk
# ----------------------------------------------------------------------
def _arrays():
    """Arrays of several dtypes and shapes, some of them non-contiguous
    views (every other element along the last axis, or transposed)."""
    plain = hnp.arrays(
        st.sampled_from(["<f8", "<f4", "<i8", "<i2", "|u1", "|b1", "<c16"]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    )
    return st.one_of(
        plain,
        plain.filter(lambda a: a.ndim > 0).map(lambda a: a[..., ::2]),
        plain.map(lambda a: a.T),
    )


_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats().map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.none(),
    _arrays(),
)
#: Keys of one dict are all ``str``, or all numbers (sortable together).
_KEYS = st.one_of(
    st.just(st.text(max_size=4)),
    st.just(st.one_of(st.integers(-5, 5), st.floats(allow_nan=False), st.booleans())),
)


def _containers(children):
    dicts = _KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=5))
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        dicts,
        # The same keys, inserted in the opposite order.
        dicts.map(lambda d: dict(reversed(d.items()))),
    )


@settings(max_examples=200, deadline=None)
@given(payload=st.recursive(_SCALARS, _containers, max_leaves=24))
def test_checksum_equals_the_reference_walk(payload):
    crc = oracles.payload_checksum(payload)
    assert payload_checksum(payload) == crc
    assert payload_checksum(payload) == crc  # warm tables, same bytes
    if type(payload) is dict:
        assert payload_checksum(dict(reversed(payload.items()))) == crc


def test_keys_that_compare_equal_encode_apart():
    # 1 == 1.0 == True, with one hash: a key tuple of them must not
    # stand in for another's encoding.
    for key in (1, 1.0, True, np.int64(1), "1"):
        payload = {key: 0.5}
        assert payload_checksum(payload) == oracles.payload_checksum(payload)
        assert payload_checksum(payload) == oracles.payload_checksum(payload)
    assert len({payload_checksum({key: 0.5}) for key in (1, 1.0, True)}) == 3


def test_key_order_table_stops_at_its_cap_and_still_encodes_past_it():
    cap = checksum._TABLE_CAP
    payloads = [
        {f"k{i:04d}": float(i), "flag": i % 2 == 0, "n": i} for i in range(2 * cap)
    ]
    for _ in range(2):  # cold, then warm up to the bound only
        for payload in payloads:
            assert payload_checksum(payload) == oracles.payload_checksum(payload)
        assert len(checksum._KEY_ORDERS) == cap
    # The tabled orders are the first ``cap`` key tuples met.
    assert tuple(payloads[cap - 1]) in checksum._KEY_ORDERS
    assert tuple(payloads[cap]) not in checksum._KEY_ORDERS


# ----------------------------------------------------------------------
# checkpoint_crc
# ----------------------------------------------------------------------
def test_checkpoint_crc_ignores_stamp_and_opaque_state():
    snapshot = {
        "iteration": 40,
        "lo": 0,
        "hi": 12,
        "boundary": np.ones(4),
        "state": object(),  # opaque problem state: excluded from the walk
        "estimator": object(),  # not fingerprintable: excluded
    }
    crc = checkpoint_crc(snapshot)
    snapshot["crc"] = crc
    assert checkpoint_crc(snapshot) == crc


def test_checkpoint_crc_detects_missing_fields_and_state_damage():
    snapshot = {"iteration": 40, "lo": 0, "hi": 12, "boundary": np.ones(4)}
    state = np.linspace(0.0, 1.0, 24)
    crc = checkpoint_crc(snapshot, state)
    # The state array is part of the fingerprint...
    damaged_state = state.copy()
    damaged_state[7] = np.nextafter(damaged_state[7], np.inf)
    assert checkpoint_crc(snapshot, damaged_state) != crc
    # ...passing no view is a different fingerprint (stamp/verify must
    # agree on the view)...
    assert checkpoint_crc(snapshot) != crc
    # ...and so is a truncated snapshot (the key list is fingerprinted).
    truncated = {k: v for k, v in snapshot.items() if k != "hi"}
    assert checkpoint_crc(truncated, state) != crc


def test_checkpoint_crc_keeps_a_numpy_bool_field():
    # A comparison on arrays hands back np.bool_; dropping such a field
    # silently would let its loss go undetected.
    flagged = {"converged": np.bool_(True), "hi": 12}
    assert checkpoint_crc(flagged) == checkpoint_crc({"converged": True, "hi": 12})
    assert checkpoint_crc(flagged) != checkpoint_crc({"hi": 12})


# ----------------------------------------------------------------------
# corrupt_payload / corrupt_array_inplace
# ----------------------------------------------------------------------
def test_corrupt_payload_never_mutates_the_original():
    payload = {"iteration": 3, "halo": np.arange(5, dtype=float)}
    pristine_crc = payload_checksum(payload)
    for mode in ("bitflip", "perturb", "truncate"):
        damaged, detail = corrupt_payload(payload, mode, 10.0, rng(5))
        assert detail is not None
        assert payload_checksum(payload) == pristine_crc, (
            f"{mode} mutated the sender's buffered copy"
        )
        assert payload_checksum(damaged) != pristine_crc


def test_corrupt_payload_is_seed_deterministic():
    payload = {"a": 1.5, "b": np.arange(4, dtype=float)}
    first = corrupt_payload(payload, "bitflip", 0.0, rng(9))
    second = corrupt_payload(payload, "bitflip", 0.0, rng(9))
    assert first[1] == second[1]
    assert payload_checksum(first[0]) == payload_checksum(second[0])


def test_corrupt_payload_with_nothing_corruptible():
    damaged, detail = corrupt_payload(None, "bitflip", 1.0, rng(0))
    assert damaged is None and detail is None


def test_corrupt_payload_truncate_drops_a_field():
    payload = {"a": 1.0, "b": 2.0, "c": 3.0}
    damaged, detail = corrupt_payload(payload, "truncate", 1.0, rng(1))
    assert len(damaged) == 2
    assert "dropped field" in detail


def test_corrupt_array_inplace_changes_exactly_one_element():
    arr = np.linspace(1.0, 2.0, 10)
    before = arr.copy()
    detail = corrupt_array_inplace(arr, "bitflip", 0.0, rng(2))
    assert detail.startswith("bitflip")
    assert (arr != before).sum() == 1
