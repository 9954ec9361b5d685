"""Backend-agnostic RunStore contract, run against every store backend.

Every backend registered in ``repro.results.backends`` must present the
same observable behaviour: append/get/len/iter, last-wins fingerprint
resolution (in memory *and* across a reload), record-type checking,
compaction, and bit-identical schema-3 round-trips.  JSONL- or
SQLite-specific behaviour (torn tails, WAL pragmas, ...) lives in the
per-backend test modules.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics.stats import RunSummary
from repro.results import RunRecord
from repro.results.backends import STORE_BACKENDS, merge_stores, open_store, store_class

from tests.results.test_record import make_record, make_summary

_SUFFIX = {"jsonl": ".jsonl", "sqlite": ".sqlite"}


@pytest.fixture(params=STORE_BACKENDS)
def backend(request):
    """The backend name under test; parametrizes every test in this module."""
    return request.param


@pytest.fixture
def make_store(backend, tmp_path):
    """Factory opening (or reopening) a store of the current backend."""
    counter = {"n": 0}

    def _make(name=None):
        if name is None:
            counter["n"] += 1
            name = f"runs-{counter['n']}"
        return open_store(tmp_path / (name + _SUFFIX[backend]), backend=backend)

    return _make


def test_append_then_get(make_store):
    store = make_store()
    record = make_record()
    store.append(record)
    assert store.get(record.fingerprint) == record
    assert record.fingerprint in store
    assert len(store) == 1
    assert list(store) == [record]
    store.close()


def test_get_misses_return_none(make_store):
    store = make_store()
    assert store.get("ff" * 16) is None
    assert "ff" * 16 not in store


def test_records_survive_reopen_in_append_order(make_store):
    with make_store("shared") as store:
        store.append(make_record(fingerprint="aa" * 16))
        store.append(make_record(fingerprint="bb" * 16))
    reopened = make_store("shared")
    assert len(reopened) == 2
    assert [r.fingerprint for r in reopened] == ["aa" * 16, "bb" * 16]
    assert reopened.corrupt_lines == 0
    reopened.close()


def test_parent_directories_are_created(backend, tmp_path):
    path = tmp_path / "deep" / "nested" / ("runs" + _SUFFIX[backend])
    store = open_store(path, backend=backend)
    store.append(make_record())
    store.close()
    reopened = open_store(path, backend=backend)
    assert len(reopened) == 1
    reopened.close()


def test_last_record_wins_per_fingerprint(make_store):
    store = make_store("shared")
    store.append(make_record(elapsed=1.0))
    store.append(make_record(elapsed=2.0))
    assert len(store) == 1
    assert store.records()[0].elapsed == 2.0
    store.close()
    # The superseding record also wins after a reload.
    reopened = make_store("shared")
    assert reopened.records()[0].elapsed == 2.0
    reopened.close()


def test_ordering_is_first_appearance_even_after_supersede(make_store):
    store = make_store()
    store.append(make_record(fingerprint="aa" * 16, elapsed=1.0))
    store.append(make_record(fingerprint="bb" * 16))
    store.append(make_record(fingerprint="aa" * 16, elapsed=9.0))
    assert [r.fingerprint for r in store] == ["aa" * 16, "bb" * 16]
    assert store.get("aa" * 16).elapsed == 9.0
    store.close()


def test_append_rejects_non_records(make_store):
    store = make_store()
    with pytest.raises(ConfigurationError):
        store.append({"schema": 1})
    store.close()


def test_extend_appends_every_record(make_store):
    store = make_store()
    store.extend(
        [
            make_record(fingerprint="aa" * 16),
            make_record(fingerprint="bb" * 16),
            make_record(fingerprint="aa" * 16, elapsed=7.0),
        ]
    )
    assert len(store) == 2
    assert store.get("aa" * 16).elapsed == 7.0
    store.close()


def test_context_manager_closes_and_store_stays_readable(make_store):
    with make_store("shared") as store:
        store.append(make_record())
    with make_store("shared") as reopened:
        assert len(reopened) == 1


def test_compact_drops_superseded_records(make_store):
    store = make_store("shared")
    for elapsed in (1.0, 2.0, 3.0):
        store.append(make_record(elapsed=elapsed))
    store.append(make_record(fingerprint="bb" * 16))
    dropped = store.compact()
    assert dropped == 2
    assert len(store) == 2
    assert store.records()[0].elapsed == 3.0
    store.close()
    reopened = make_store("shared")
    assert len(reopened) == 2
    assert reopened.get(make_record().fingerprint).elapsed == 3.0
    reopened.close()


def test_compact_is_idempotent(make_store):
    store = make_store()
    store.append(make_record())
    assert store.compact() == 0
    assert store.compact() == 0
    assert len(store) == 1
    store.close()


def test_schema3_record_round_trips_bit_identically(make_store):
    record = make_record(
        summary=make_summary(per_class_missed={"update": 1.5, "query": 0.25}),
        scenario=None,
    )
    with make_store("shared") as store:
        store.append(record)
    reopened = make_store("shared")
    rebuilt = reopened.get(record.fingerprint)
    assert rebuilt == record
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
        record.to_dict(), sort_keys=True
    )
    reopened.close()


def _write_raw_rows(backend, path, payloads):
    """Put JSON rows straight into a store file, bypassing ``append``."""
    rows = [json.dumps(payload) for payload in payloads]
    if backend == "jsonl":
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(row + "\n" for row in rows)
        return
    import sqlite3

    conn = sqlite3.connect(path)
    conn.executemany(
        "INSERT INTO run_records (fingerprint, payload) VALUES (?, ?)",
        [("ff" * 16, row) for row in rows],
    )
    conn.commit()
    conn.close()


_GOOD = make_record().to_dict()


@pytest.mark.parametrize(
    "row",
    [
        {"schema": []},
        {**_GOOD, "schema": True},
        {**_GOOD, "fingerprint": ["ff" * 16]},
        {**_GOOD, "fingerprint": "ff" * 16, "arrival_rate": "fast"},
        {**_GOOD, "fingerprint": "ff" * 16, "replication": "one"},
        {**_GOOD, "fingerprint": "ff" * 16, "seed": None},
        {**_GOOD, "fingerprint": "ff" * 16, "protocol_spec": ["scc-2s"]},
        {**_GOOD, "fingerprint": "ff" * 16, "summary": []},
    ],
    ids=["schema-list", "schema-bool", "fingerprint-list", "rate-string",
         "replication-string", "seed-null", "spec-list", "summary-list"],
)
def test_row_with_a_wrong_field_type_is_counted_not_loaded(
    backend, make_store, tmp_path, row
):
    # A row that parses as JSON but carries the wrong type in one field
    # is damage: the store opens, keeps its good record, and counts the
    # row, instead of raising or listing a rate of "fast".
    with make_store("shared") as store:
        store.append(make_record())
    _write_raw_rows(backend, tmp_path / ("shared" + _SUFFIX[backend]), [row])
    reopened = make_store("shared")
    assert reopened.corrupt_lines == 1
    assert list(reopened) == [make_record()]
    reopened.close()


def test_merge_stores_is_idempotent_and_last_shard_wins(make_store):
    shard_a = make_store()
    shard_b = make_store()
    shard_a.append(make_record(fingerprint="aa" * 16, elapsed=1.0))
    shard_a.append(make_record(fingerprint="bb" * 16))
    shard_b.append(make_record(fingerprint="aa" * 16, elapsed=2.0))
    dest = make_store()
    assert merge_stores(dest, [shard_a, shard_b]) == 3
    assert len(dest) == 2
    assert dest.get("aa" * 16).elapsed == 2.0  # later shard wins the collision
    # Replaying a shard whose records already match adds nothing new,
    # and replaying both shards converges back to the same final state.
    assert merge_stores(dest, [shard_b]) == 0
    merge_stores(dest, [shard_a, shard_b])
    assert len(dest) == 2
    assert dest.get("aa" * 16).elapsed == 2.0
    for store in (shard_a, shard_b, dest):
        store.close()


def test_merge_across_backends(backend, tmp_path):
    """A shard of any backend merges into a destination of any other."""
    other = "sqlite" if backend == "jsonl" else "jsonl"
    shard = open_store(tmp_path / ("shard" + _SUFFIX[backend]), backend=backend)
    shard.append(make_record())
    dest = open_store(tmp_path / ("dest" + _SUFFIX[other]), backend=other)
    assert merge_stores(dest, [shard]) == 1
    assert dest.get(make_record().fingerprint) == make_record()
    shard.close()
    dest.close()


def test_store_class_resolves_registered_backends(backend):
    cls = store_class(backend)
    assert cls.backend == backend
    with pytest.raises(ConfigurationError, match="unknown store backend"):
        store_class("parquet")


# ----------------------------------------------------------------------
# property: arbitrary schema-3 records survive a store round trip
# ----------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_class_map = st.dictionaries(
    st.text(min_size=1, max_size=8), _finite, min_size=0, max_size=3
)

_summaries = st.builds(
    RunSummary,
    committed=st.integers(min_value=0, max_value=10**6),
    missed_ratio=_finite,
    avg_tardiness_late=_finite,
    avg_tardiness_all=_finite,
    system_value=_finite,
    avg_response_time=_finite,
    restarts=st.integers(min_value=0, max_value=10**6),
    shadow_aborts=st.integers(min_value=0, max_value=10**6),
    wasted_work=_finite,
    useful_work=_finite,
    deferred_commits=st.integers(min_value=0, max_value=10**6),
    per_class_missed=_class_map,
    per_class_value=_class_map,
)

_records = st.builds(
    RunRecord,
    fingerprint=st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
    config_fingerprint=st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
    protocol=st.text(min_size=1, max_size=16),
    arrival_rate=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    replication=st.integers(min_value=0, max_value=10**4),
    seed=st.integers(min_value=0, max_value=2**31),
    summary=_summaries,
    scenario=st.one_of(st.none(), st.text(min_size=1, max_size=16)),
    elapsed=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(records=st.lists(_records, min_size=1, max_size=6))
def test_any_schema3_records_round_trip_through_any_backend(records, backend, tmp_path):
    # tmp_path is shared across hypothesis examples; isolate each one.
    path = tmp_path / f"prop-{len(list(tmp_path.iterdir()))}" / "runs"
    store = open_store(path, backend=backend)
    try:
        for record in records:
            store.append(record)
        expected = {}
        order = []
        for record in records:
            if record.fingerprint not in expected:
                order.append(record.fingerprint)
            expected[record.fingerprint] = record
        assert [r.fingerprint for r in store] == order
        store.close()
        reopened = open_store(path, backend=backend)
        assert reopened.corrupt_lines == 0
        assert [r.fingerprint for r in reopened] == order
        for fingerprint, record in expected.items():
            assert reopened.get(fingerprint) == record
        reopened.close()
    finally:
        store.close()
