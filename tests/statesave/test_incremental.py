"""Incremental checkpointing (dirty pages, chains)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.statesave.incremental import (
    IncrementalError, IncrementalTracker, PAGE,
)
from repro.statesave.serializer import SerializationError


def test_first_save_is_full():
    t = IncrementalTracker()
    rec = t.encode({"a": np.zeros(1024)})
    assert rec["full"]
    assert rec["arrays"]["a"]["kind"] == "full"


def test_unchanged_array_costs_nothing():
    t = IncrementalTracker()
    a = np.zeros(2048)
    t.encode({"a": a})
    rec = t.encode({"a": a})
    assert not rec["full"]
    assert rec["arrays"]["a"]["kind"] == "delta"
    assert IncrementalTracker.record_bytes(rec) == 0


def test_only_dirty_pages_saved():
    t = IncrementalTracker()
    a = np.zeros(4 * PAGE // 8)  # 4 pages of float64
    t.encode({"a": a})
    a[0] = 1.0                   # dirty exactly one page
    rec = t.encode({"a": a})
    assert IncrementalTracker.record_bytes(rec) == PAGE


def test_chain_decode_reconstructs():
    t = IncrementalTracker()
    a = np.arange(PAGE // 8 * 3, dtype=np.float64)
    records = [t.encode({"a": a})]
    a[0] = -1.0
    records.append(t.encode({"a": a}))
    a[-1] = -2.0
    records.append(t.encode({"a": a}))
    out = IncrementalTracker.decode_chain(records)
    assert np.array_equal(out["a"], a)


def test_full_interval_forces_periodic_full():
    t = IncrementalTracker(full_interval=2)
    a = np.zeros(PAGE // 8)
    recs = [t.encode({"a": a}) for _ in range(4)]
    assert [r["full"] for r in recs] == [True, False, True, False]


def test_deleted_arrays_do_not_resurrect():
    t = IncrementalTracker()
    records = [t.encode({"a": np.ones(8), "b": np.ones(8)})]
    records.append(t.encode({"a": np.ones(8)}))  # b deleted
    out = IncrementalTracker.decode_chain(records)
    assert set(out) == {"a"}


def test_geometry_change_forces_full_entry():
    t = IncrementalTracker()
    t.encode({"a": np.zeros(PAGE // 8)})
    rec = t.encode({"a": np.zeros(PAGE // 8 * 2)})  # grew
    assert rec["arrays"]["a"]["kind"] == "full"


def test_dtype_change_same_nbytes_forces_full_entry():
    """Regression: equal byte length is not equal geometry.  A dtype flip
    with the same nbytes used to emit a delta whose metadata silently
    changed the chain's dtype mid-stream; it must be a full entry."""
    t = IncrementalTracker(full_interval=100)
    a = np.arange(PAGE // 8, dtype=np.float64)
    rec1 = t.encode({"a": a})
    b = a.view(np.int64).copy()          # same nbytes, same raw bytes
    rec2 = t.encode({"a": b})
    assert rec2["arrays"]["a"]["kind"] == "full"
    out = IncrementalTracker.decode_chain([rec1, rec2])
    assert out["a"].dtype == np.int64
    assert np.array_equal(out["a"], b)
    # and the chain up to the dtype flip still restores the old view
    out1 = IncrementalTracker.decode_chain([rec1])
    assert out1["a"].dtype == np.float64
    assert np.array_equal(out1["a"], a)


def test_shape_change_same_nbytes_forces_full_entry():
    t = IncrementalTracker(full_interval=100)
    t.encode({"a": np.zeros((2, PAGE // 16))})
    rec = t.encode({"a": np.zeros(PAGE // 8)})   # same nbytes, new shape
    assert rec["arrays"]["a"]["kind"] == "full"


def test_decode_rejects_geometry_flipping_delta():
    """A (pre-fix) chain whose delta silently changes dtype must now be
    rejected instead of reinterpreting the buffer."""
    t = IncrementalTracker(full_interval=100)
    a = np.arange(PAGE // 8, dtype=np.float64)
    rec1 = t.encode({"a": a})
    rec2 = t.encode({"a": a})                    # honest delta
    rec2["arrays"]["a"]["dtype"] = "<i8"         # forged geometry flip
    with pytest.raises(IncrementalError, match="geometry"):
        IncrementalTracker.decode_chain([rec1, rec2])


@pytest.mark.parametrize("dtype", [[("x", "<f8"), ("n", "<i4")],
                                   np.dtype(object)])
def test_dtype_the_wire_cannot_carry_is_refused(dtype):
    """The record keeps ``dtype.str``, which drops a structured dtype's
    field names: refused at save like the full format, and the tracker
    is left as it was."""
    t = IncrementalTracker()
    first = t.encode({"a": np.arange(4.0)})
    with pytest.raises(SerializationError, match="cannot be checkpointed"):
        t.encode({"a": np.arange(4.0), "rec": np.zeros(3, dtype=dtype)})
    again = t.encode({"a": np.arange(4.0)})
    assert first["full"] and not again["full"]
    assert again["arrays"]["a"]["pages"] == {}


def test_big_endian_chain_keeps_its_dtype():
    t = IncrementalTracker()
    a = np.arange(1000, dtype=">f8")
    records = [t.encode({"a": a})]
    a[3] = -1.5
    records.append(t.encode({"a": a}))
    got = IncrementalTracker.decode_chain(records)["a"]
    assert got.dtype.str == ">f8" and got.tobytes() == a.tobytes()


def test_chain_must_start_full():
    t = IncrementalTracker()
    a = np.zeros(PAGE // 8)
    t.encode({"a": a})
    a[0] = 1
    delta = t.encode({"a": a})
    with pytest.raises(IncrementalError):
        IncrementalTracker.decode_chain([delta])


def test_empty_chain():
    with pytest.raises(IncrementalError):
        IncrementalTracker.decode_chain([])


def test_bad_interval():
    with pytest.raises(ValueError):
        IncrementalTracker(full_interval=0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5 * PAGE // 8 - 1), max_size=5),
                min_size=1, max_size=6))
def test_incremental_chain_property(mutation_rounds):
    """Property: decoding the chain always equals the final array state,
    no matter which elements were dirtied when."""
    t = IncrementalTracker(full_interval=100)
    a = np.zeros(5 * PAGE // 8)
    records = [t.encode({"a": a})]
    for round_muts in mutation_rounds:
        for idx in round_muts:
            a[idx] += 1.0
        records.append(t.encode({"a": a}))
    out = IncrementalTracker.decode_chain(records)
    assert np.array_equal(out["a"], a)
