"""One update protocol: ``update`` is ``update_many`` on a plan of one.

``Database._run`` is the only place the explore → log → apply protocol is
written; these tests hold the two public entry points to it from the
outside — the same spans, the same bytes in the log, the same numbers in
the registry, and the same modelled 1987 times hanging off the seam in
``core/stats.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DURABILITY_MODES,
    Database,
    DatabasePoisoned,
    PreconditionFailed,
)
from repro.core.version import logfile_name
from repro.obs.tracing import Tracer, span_names
from repro.sim import MICROVAX_II, SimClock
from repro.storage import SimFS

PHASES = ["db.explore", "db.pickle", "db.log_append", "db.apply"]


def fresh(kv_ops, **options) -> Database:
    clock = SimClock()
    return Database(
        SimFS(clock=clock), initial=dict, operations=kv_ops, clock=clock, **options
    )


def root_of(db: Database) -> dict:
    return db.enquire(dict)


def counters(db: Database) -> dict:
    """The registry counters an update moves, as ``{name or (name, label): value}``."""
    out = {}
    for name in (
        "db_updates_total",
        "db_log_entries_written_total",
        "db_log_fsyncs_total",
        "db_relaxed_updates_total",
        "db_commit_batch_total",
    ):
        for series in db.registry.get(name).series():
            out[(name, *series.labels) if series.labels else name] = series.value
    return out


class TestSpans:
    def traced(self, kv_ops, durability):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        db = Database(
            SimFS(clock=clock),
            initial=dict,
            operations=kv_ops,
            durability=durability,
            tracer=tracer,
        )
        return db, tracer

    @pytest.mark.parametrize("durability", DURABILITY_MODES)
    def test_a_batch_is_one_update_span_with_the_phases_of_a_single_update(
        self, kv_ops, durability
    ):
        db, tracer = self.traced(kv_ops, durability)
        db.update("set", "solo", 0)
        single = tracer.tree(tracer.last_trace_id())
        pickled_before = db.stats.pickle_bytes_written
        db.update_many([("set", (f"k{i}", i)) for i in range(3)])
        batch = tracer.tree(tracer.last_trace_id())

        assert batch["trace_id"] != single["trace_id"]
        assert batch["name"] == "db.update"
        assert batch["attrs"] == {"op": "set", "batch": 3}
        assert single["attrs"] == {"op": "set", "batch": 1}
        # (phases that cost no modelled time start together, so siblings
        # are compared as a set; their order is the protocol's, not the tree's)
        phases = {*PHASES, "db.commit_barrier"} if durability == "group" else set(PHASES)
        by_name = {child["name"]: child for child in batch["children"]}
        assert len(batch["children"]) == len(single["children"]) == len(phases)
        assert set(by_name) == {c["name"] for c in single["children"]} == phases
        assert sorted(span_names(batch)) == sorted(span_names(single))
        if durability == "group":
            assert span_names(by_name["db.commit_barrier"])[1:] == ["commit.fsync"]
        assert [e["name"] for e in batch["events"]] == ["update_lock_acquired"]
        assert by_name["db.log_append"]["attrs"] == {
            "bytes": db.stats.pickle_bytes_written - pickled_before
        }

    def test_a_failed_phase_closes_its_span_with_the_error(self, kv_ops):
        db, tracer = self.traced(kv_ops, "group")
        with pytest.raises(PreconditionFailed):
            db.update_many([("set", ("a", 1)), ("del", ("ghost",))])
        tree = tracer.tree(tracer.last_trace_id())
        assert span_names(tree) == ["db.update", "db.explore"]
        assert "PreconditionFailed" in tree["error"]
        assert "PreconditionFailed" in tree["children"][0]["error"]
        # and the thread's span stack is clean again
        db.update("set", "a", 1)
        assert tracer.tree(tracer.last_trace_id())["parent_id"] is None


class TestPlanOfOne:
    @pytest.mark.parametrize("durability", DURABILITY_MODES)
    def test_update_many_of_one_is_update(self, kv_ops, durability):
        single = fresh(kv_ops, durability=durability, cost_model=MICROVAX_II)
        batch = fresh(kv_ops, durability=durability, cost_model=MICROVAX_II)
        before = single.stats.snapshot()
        assert batch.stats.snapshot() == before

        assert single.update("incr", "n", amount=5) == 5
        assert batch.update_many([("incr", ("n",), {"amount": 5})]) == [5]

        log = logfile_name(1)
        assert batch.fs.read(log) == single.fs.read(log)
        assert batch.stats.snapshot() == single.stats.snapshot() != before
        assert batch.registry.snapshot() == single.registry.snapshot()
        assert root_of(batch) == root_of(single) == {"n": 5}
        assert batch.clock.now() == single.clock.now()

    #: what the parent commit (one protocol copy per entry point) recorded
    #: for ``update_many`` of five sets on a fresh database, per mode
    PARENT_BATCH_OF_5 = {
        "immediate": {
            "db_updates_total": 5.0,
            "db_log_entries_written_total": 5.0,
            "db_log_fsyncs_total": 1.0,
            "db_relaxed_updates_total": 0.0,
            ("db_commit_batch_total", "5"): 1.0,
        },
        "group": {
            "db_updates_total": 5.0,
            "db_log_entries_written_total": 5.0,
            "db_log_fsyncs_total": 1.0,
            "db_relaxed_updates_total": 0.0,
            ("db_commit_batch_total", "5"): 1.0,
        },
        "relaxed": {
            "db_updates_total": 5.0,
            "db_log_entries_written_total": 5.0,
            "db_log_fsyncs_total": 0.0,
            "db_relaxed_updates_total": 5.0,
        },
    }

    @pytest.mark.parametrize("durability", DURABILITY_MODES)
    def test_a_batch_counts_what_it_always_counted(self, kv_ops, durability):
        db = fresh(kv_ops, durability=durability)
        db.update_many([("set", (f"k{i}", i)) for i in range(5)])
        assert root_of(db) == {f"k{i}": i for i in range(5)}
        assert counters(db) == self.PARENT_BATCH_OF_5[durability]
        assert db.entries_since_checkpoint == 5
        assert db.pending_commits() == (5 if durability == "relaxed" else 0)


class TestModelledTime:
    """MICROVAX_II on a SimClock is a plug-in: the paper's 6 + 22 + 20 + 6."""

    EXPLORE = MODIFY = 6e-3
    PICKLE_PER_BYTE = 55e-6

    def test_single_update_breakdown(self, kv_ops):
        db = fresh(kv_ops, durability="immediate", cost_model=MICROVAX_II)
        started = db.clock.now()
        db.update("set", "key", "v" * 100)
        elapsed = db.clock.now() - started
        last = db.stats.last_update
        cpu = self.EXPLORE + self.PICKLE_PER_BYTE * db.stats.pickle_bytes_written + self.MODIFY
        assert last.explore_seconds == pytest.approx(self.EXPLORE, rel=1e-9)
        assert last.pickle_seconds == pytest.approx(
            self.PICKLE_PER_BYTE * db.stats.pickle_bytes_written, rel=1e-9
        )
        assert last.apply_seconds == pytest.approx(self.MODIFY, rel=1e-9)
        # what is left of the clock is the disk model's log write + fsync
        assert last.log_write_seconds == pytest.approx(elapsed - cpu, rel=1e-9)
        assert last.log_write_seconds > 0.010
        assert last.total() == pytest.approx(elapsed, rel=1e-9)

    def test_a_batch_of_four_records_per_entry_shares(self, kv_ops):
        db = fresh(kv_ops, durability="immediate", cost_model=MICROVAX_II)
        started = db.clock.now()
        db.update_many([("set", (f"key{i}", "v" * 100)) for i in range(4)])
        elapsed = db.clock.now() - started
        last, total = db.stats.last_update, db.stats.cumulative
        pickled = db.stats.pickle_bytes_written
        assert last.explore_seconds == pytest.approx(self.EXPLORE, rel=1e-9)
        assert last.pickle_seconds == pytest.approx(
            self.PICKLE_PER_BYTE * pickled / 4, rel=1e-9
        )
        assert last.apply_seconds == pytest.approx(self.MODIFY, rel=1e-9)
        assert total.total() == pytest.approx(elapsed, rel=1e-9)
        assert total.total() == pytest.approx(4 * last.total(), rel=1e-9)
        cpu = 4 * (self.EXPLORE + self.MODIFY) + self.PICKLE_PER_BYTE * pickled
        assert total.log_write_seconds == pytest.approx(elapsed - cpu, rel=1e-9)

    def test_group_commit_wait_is_shared_out_too(self, kv_ops):
        db = fresh(kv_ops, durability="group", cost_model=MICROVAX_II)
        db.update_many([("set", (f"key{i}", i)) for i in range(4)])
        assert db.stats.last_commit_wait_seconds > 0
        assert db.stats.commit_wait_seconds == pytest.approx(
            4 * db.stats.last_commit_wait_seconds, rel=1e-9
        )
        # a staged append costs the disk model nothing until the shared fsync
        assert db.stats.last_update.log_write_seconds == db.stats.last_commit_wait_seconds

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    def test_a_rejected_precondition_records_no_phase_time(self, kv_ops, batched):
        db = fresh(kv_ops, cost_model=MICROVAX_II)
        log_before = db.log_size()
        with pytest.raises(PreconditionFailed):
            if batched:
                db.update_many([("del", ("ghost",)), ("set", ("a", 1))])
            else:
                db.update("del", "ghost")
        assert db.stats.updates_rejected == 1
        assert db.stats.updates == 0
        assert db.stats.cumulative.total() == 0.0
        assert db.log_size() == log_before
        assert root_of(db) == {}
        assert not db.lock.holders()["update"]


class TestPoisoning:
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    def test_a_failing_apply_poisons_and_releases_the_lock(self, kv_ops, batched):
        @kv_ops.operation("boom")
        def boom(root):
            raise RuntimeError("apply blew up")

        db = fresh(kv_ops)
        with pytest.raises(DatabasePoisoned):
            if batched:
                db.update_many([("set", ("a", 1)), ("boom", ())])
            else:
                db.update("boom")
        assert db.lock.holders() == {
            "shared": 0,
            "update": False,
            "exclusive": False,
            "exclusive_pending": 0,
        }
        with pytest.raises(DatabasePoisoned):
            db.enquire(dict)
        with pytest.raises(DatabasePoisoned):
            db.update_many([("set", ("b", 2))])
        # the log is ahead of memory: nothing of the plan was recorded as applied
        assert db.stats.updates == 0


keys = st.sampled_from(["a", "b", "c", "d"])
batch_ops = st.one_of(
    st.tuples(st.just("set"), st.tuples(keys, st.integers(-5, 5))),
    st.tuples(st.just("incr"), st.tuples(keys), st.fixed_dictionaries({"amount": st.integers(1, 3)})),
    st.tuples(st.just("incr"), st.tuples(keys)),
)


class TestReplay:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        batches=st.lists(st.lists(batch_ops, min_size=0, max_size=5), max_size=4),
        durability=st.sampled_from(DURABILITY_MODES),
    )
    def test_replaying_the_log_equals_applying_the_batch_in_order(
        self, kv_ops, batches, durability
    ):
        db = fresh(kv_ops, durability=durability)
        model: dict = {}
        for batch in batches:
            results = db.update_many(batch)
            assert len(results) == len(batch)
            for name, args, *rest in batch:
                if name == "set":
                    model[args[0]] = args[1]
                else:
                    model[args[0]] = model.get(args[0], 0) + (rest[0]["amount"] if rest else 1)
        assert root_of(db) == model
        db.close()  # flushes a relaxed backlog; the log alone now holds the state
        replayed = Database(db.fs, initial=dict, operations=kv_ops)
        assert replayed.stats.entries_replayed == sum(map(len, batches))
        assert root_of(replayed) == model
