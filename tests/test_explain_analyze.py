"""Tests for EXPLAIN and EXPLAIN ANALYZE plan reporting."""

import threading

import pytest

from repro.engines import Database
from repro.errors import SqlPlanError
from repro.obs.waits import CLIENT_BACKOFF, WAITS


@pytest.fixture
def db():
    database = Database("greenwood")
    database.execute("CREATE TABLE pts (id INTEGER, geom GEOMETRY)")
    rows = ", ".join(f"({i}, ST_Point({i}, {i}))" for i in range(50))
    database.execute(f"INSERT INTO pts VALUES {rows}")
    database.execute("CREATE SPATIAL INDEX pix ON pts (geom)")
    return database


class TestExplainAnalyze:
    def test_reports_row_counts(self, db):
        text = db.explain_analyze(
            "SELECT id FROM pts "
            "WHERE ST_Intersects(geom, ST_MakeEnvelope(0, 0, 10, 10))"
        )
        assert "IndexScan" in text
        assert "Total output rows: 11" in text
        assert "rows=11" in text  # the Project node emitted 11

    def test_reports_filtering(self, db):
        text = db.explain_analyze("SELECT id FROM pts WHERE id < 5")
        # SeqScan emits 50, Filter narrows to 5
        assert "rows=50" in text
        assert "rows=5" in text

    def test_timing_present(self, db):
        text = db.explain_analyze("SELECT COUNT(*) FROM pts")
        assert "time=" in text
        assert "ms" in text

    def test_params_supported(self, db):
        text = db.explain_analyze(
            "SELECT id FROM pts WHERE id = ?", (7,)
        )
        assert "Total output rows: 1" in text

    def test_rejects_non_select(self, db):
        with pytest.raises(SqlPlanError):
            db.explain_analyze("INSERT INTO pts VALUES (99, NULL)")

    def test_does_not_poison_plan_cache(self, db):
        query = "SELECT COUNT(*) FROM pts"
        first = db.execute(query).scalar()
        db.explain_analyze(query)
        assert db.execute(query).scalar() == first

    def test_join_operators_instrumented(self, db):
        db.execute("CREATE TABLE zones (z INTEGER, geom GEOMETRY)")
        db.execute(
            "INSERT INTO zones VALUES "
            "(1, ST_MakeEnvelope(0, 0, 10, 10)), "
            "(2, ST_MakeEnvelope(40, 40, 49, 49))"
        )
        text = db.explain_analyze(
            "SELECT COUNT(*) FROM zones z JOIN pts p "
            "ON ST_Contains(z.geom, p.geom)"
        )
        assert "IndexNestedLoopJoin" in text
        assert "Aggregate" in text
        assert "Total output rows: 1" in text


class TestExplainAnalyzeWaits:
    @pytest.fixture
    def waits(self):
        WAITS.enable()
        WAITS.reset()
        yield WAITS
        WAITS.disable()
        WAITS.reset()

    def test_other_threads_waits_not_charged(self, db, waits):
        """A wait another thread records while the statement runs belongs
        to that thread, not to this statement's "Waits" section."""
        def other_thread_waits(value):
            worker = threading.Thread(
                target=waits.record, args=(CLIENT_BACKOFF, 0.25)
            )
            worker.start()
            worker.join()
            return value

        db.registry.register("other_thread_waits", other_thread_waits)
        text = db.explain_analyze(
            "SELECT other_thread_waits(id) FROM pts WHERE id < 3"
        )
        assert waits.summary()[CLIENT_BACKOFF]["count"] == 3
        assert "Waits (this statement):" in text
        assert CLIENT_BACKOFF not in text

    def test_own_waits_reported(self, db, waits):
        db.registry.register(
            "own_wait", lambda v: waits.record(CLIENT_BACKOFF, 0.25) or v
        )
        text = db.explain_analyze("SELECT own_wait(id) FROM pts WHERE id < 2")
        assert f"{CLIENT_BACKOFF}" in text
        assert "count=2" in text
