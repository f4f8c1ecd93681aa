"""Tests for the per-database statement/plan cache."""

import threading

import pytest

from repro.core.experiments import JOIN_MATRIX
from repro.engines import Database
from repro.obs.statements import plan_shape


@pytest.fixture
def db():
    database = Database("greenwood")
    database.execute("CREATE TABLE t (id INTEGER, geom GEOMETRY)")
    database.execute(
        "INSERT INTO t VALUES (1, ST_Point(0, 0)), (2, ST_Point(5, 5))"
    )
    return database


QUERY = (
    "SELECT COUNT(*) FROM t "
    "WHERE ST_Intersects(geom, ST_MakeEnvelope(-1, -1, 1, 1))"
)


class TestPlanCache:
    def test_repeated_select_hits_cache(self, db):
        db.execute(QUERY)
        assert QUERY in db._plan_cache
        cached = db._plan_cache[QUERY]
        db.execute(QUERY)
        assert db._plan_cache[QUERY] is cached

    def test_results_identical_across_cache_hits(self, db):
        first = db.execute(QUERY).scalar()
        second = db.execute(QUERY).scalar()
        assert first == second == 1

    def test_ddl_flushes_plans(self, db):
        db.execute(QUERY)
        assert db._plan_cache
        db.execute("CREATE SPATIAL INDEX tix ON t (geom)")
        assert not db._plan_cache
        # the fresh plan must now use the index
        assert "IndexScan" in db.explain(QUERY)
        assert db.execute(QUERY).scalar() == 1

    def test_insert_flushes_and_results_stay_correct(self, db):
        assert db.execute(QUERY).scalar() == 1
        db.execute("INSERT INTO t VALUES (3, ST_Point(0.5, 0.5))")
        assert db.execute(QUERY).scalar() == 2

    def test_params_vary_on_cached_plan(self, db):
        sql = "SELECT COUNT(*) FROM t WHERE id = ?"
        assert db.execute(sql, (1,)).scalar() == 1
        assert db.execute(sql, (99,)).scalar() == 0
        assert db.execute(sql, (2,)).scalar() == 1

    def test_cache_bounded(self, db):
        db.PLAN_CACHE_SIZE = 4
        for i in range(10):
            db.execute(f"SELECT {i} FROM t")
        assert len(db._plan_cache) <= 4 + 1

    def test_drop_table_invalidates(self, db):
        db.execute(QUERY)
        db.execute("DROP TABLE t")
        from repro.errors import SqlPlanError

        with pytest.raises(SqlPlanError):
            db.execute(QUERY)


#: the J-X3 join matrix plus one short statement of each kind
TRACED_STATEMENTS = [sql for _label, sql in JOIN_MATRIX] + [
    "SELECT gid, name FROM pointlm WHERE gid = 7",
    "SELECT gid FROM pointlm "
    "WHERE ST_Intersects(geom, ST_MakeEnvelope(0, 0, 30000, 30000))",
    "SELECT gid FROM pointlm ORDER BY geom <-> ST_Point(50000, 50000) "
    "LIMIT 5",
]


def _node_identities(node):
    """Pre-order ``(node, children)`` object identities of a plan tree."""
    children = tuple(node.children())
    out = [(id(node), tuple(id(child) for child in children))]
    for child in children:
        out.extend(_node_identities(child))
    return out


class TestCopyOnTrace:
    """Traced runs execute a span-wrapped copy of the cached plan: the
    shared plan is never mutated, and tracing still hits the cache."""

    @pytest.fixture(scope="class")
    def loaded_db(self, tiny_dataset):
        database = Database("greenwood")
        tiny_dataset.load_into(database, create_indexes=True)
        database.execute("ANALYZE")
        return database

    @pytest.fixture
    def traced_db(self, loaded_db):
        yield loaded_db
        loaded_db.obs.disable_tracing()

    @pytest.mark.parametrize("sql", TRACED_STATEMENTS)
    def test_traced_run_leaves_cached_plan_unchanged(self, traced_db, sql):
        db = traced_db
        untraced = db.execute(sql).rows
        cached = db._plan_cache[sql]
        plan = cached[0]
        shape = plan_shape(plan)
        identities = _node_identities(plan)

        db.obs.enable_tracing()
        hits = db.stats.plan_cache_hits
        traced = db.execute(sql).rows
        assert db.stats.plan_cache_hits == hits + 1
        assert db.last_trace().root is not None
        assert db.last_trace().root.rows == len(untraced)
        assert traced == untraced

        assert db._plan_cache[sql] is cached
        assert plan_shape(plan) == shape
        assert _node_identities(plan) == identities

    @pytest.mark.parametrize("sql", TRACED_STATEMENTS)
    def test_concurrent_traced_runs_match_untraced(self, traced_db, sql):
        db = traced_db
        untraced = db.execute(sql).rows
        db.obs.enable_tracing()
        hits = db.stats.plan_cache_hits
        results = []
        errors = []

        def run():
            try:
                for _ in range(3):
                    results.append(db.execute(sql).rows)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 12
        assert all(rows == untraced for rows in results)
        assert db.stats.plan_cache_hits == hits + 12
