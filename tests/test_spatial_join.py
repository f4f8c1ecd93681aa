"""Spatial join engine tests.

Every join algorithm (INLJ, synchronized tree traversal, PBSM) must
return exactly the rows a plain nested loop produces, under every engine
profile — including ``bluestem``, whose MBR-only refinement makes the
"right answer" different from the exact profiles but still
algorithm-independent. Inputs are randomized through the same shape
factories the TIGER generator uses.
"""

import random

import pytest

from repro.datagen import shapes
from repro.engines import Database
from repro.errors import SqlPlanError
from repro.index import INDEX_KINDS, LinearScanIndex
from repro.geometry import Envelope

PROFILES = ("greenwood", "bluestem", "ironbark")
STRATEGIES = ("inlj", "tree", "pbsm")


def _random_layer(rng: random.Random, count: int, world: float):
    """A mix of blobby polygons, wiggly lines and points."""
    geoms = []
    for i in range(count):
        cx = rng.uniform(0.0, world)
        cy = rng.uniform(0.0, world)
        pick = i % 3
        if pick == 0:
            geoms.append(
                shapes.radial_polygon(
                    rng, (cx, cy), rng.uniform(world / 40, world / 10)
                )
            )
        elif pick == 1:
            ex = min(world, cx + rng.uniform(world / 30, world / 8))
            ey = min(world, cy + rng.uniform(world / 30, world / 8))
            geoms.append(shapes.wiggly_line(rng, (cx, cy), (ex + 1.0, ey + 1.0)))
        else:
            from repro.geometry import Point

            geoms.append(Point(cx, cy))
    return geoms


def _build_db(profile: str, seed: int, n_a: int = 40, n_b: int = 50,
              indexed: bool = True) -> Database:
    rng = random.Random(seed)
    db = Database(profile)
    db.execute("CREATE TABLE a (id INTEGER, geom GEOMETRY)")
    db.execute("CREATE TABLE b (id INTEGER, geom GEOMETRY)")
    world = 100.0
    db.insert_rows(
        "a", [(i, g) for i, g in enumerate(_random_layer(rng, n_a, world))]
    )
    db.insert_rows(
        "b", [(i, g) for i, g in enumerate(_random_layer(rng, n_b, world))]
    )
    if indexed:
        db.execute("CREATE SPATIAL INDEX ia ON a (geom)")
        db.execute("CREATE SPATIAL INDEX ib ON b (geom)")
        db.execute("ANALYZE")
    return db


PREDICATES = (
    "ST_Intersects(a.geom, b.geom)",
    "a.geom && b.geom",
    "ST_Contains(a.geom, b.geom)",
    "ST_Contains(b.geom, a.geom)",  # asymmetric, column on each side
    "ST_Overlaps(a.geom, b.geom)",
    "ST_Touches(a.geom, b.geom)",
)


class TestOperatorsMatchNestedLoop:
    """Forced tree / PBSM / INLJ joins reproduce the NLJ row set."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", (3, 11))
    def test_all_strategies_agree(self, profile, seed):
        db = _build_db(profile, seed)
        for predicate in PREDICATES:
            sql = f"SELECT a.id, b.id FROM a, b WHERE {predicate}"
            db.join_strategy = "nlj"
            truth = sorted(db.execute(sql).rows)
            for strategy in STRATEGIES:
                db.join_strategy = strategy
                got = sorted(db.execute(sql).rows)
                assert got == truth, (profile, predicate, strategy)
            db.join_strategy = "auto"
            assert sorted(db.execute(sql).rows) == truth

    @pytest.mark.parametrize("profile", PROFILES)
    def test_unindexed_pbsm_agrees(self, profile):
        db = _build_db(profile, seed=5, indexed=False)
        sql = "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        db.join_strategy = "nlj"
        truth = sorted(db.execute(sql).rows)
        db.join_strategy = "pbsm"
        assert "PBSMJoin" in db.explain(sql)
        assert sorted(db.execute(sql).rows) == truth

    def test_self_join(self):
        db = _build_db("greenwood", seed=9, n_a=30, n_b=30)
        sql = (
            "SELECT x.id, y.id FROM a AS x, a AS y "
            "WHERE ST_Intersects(x.geom, y.geom)"
        )
        db.join_strategy = "nlj"
        truth = sorted(db.execute(sql).rows)
        for strategy in STRATEGIES:
            db.join_strategy = strategy
            assert sorted(db.execute(sql).rows) == truth, strategy

    def test_residual_conjunct_applies(self):
        db = _build_db("greenwood", seed=21)
        sql = (
            "SELECT a.id, b.id FROM a, b "
            "WHERE ST_Intersects(a.geom, b.geom) AND a.id < b.id"
        )
        db.join_strategy = "nlj"
        truth = sorted(db.execute(sql).rows)
        for strategy in STRATEGIES:
            db.join_strategy = strategy
            assert sorted(db.execute(sql).rows) == truth, strategy


def _street_db(profile: str, seed: int, streets: int = 12) -> Database:
    """Street blocks: each street a wiggly line cut into consecutive
    pieces (touching end to end), plus a few pieces re-laid over part of
    their neighbours (overlapping) — the shape of J-T1's line x line
    queries, with the attribute columns their residuals test."""
    from repro.geometry import LineString

    rng = random.Random(seed)
    db = Database(profile)
    db.execute(
        "CREATE TABLE s (id INTEGER, street TEXT, county INTEGER, "
        "class TEXT, geom GEOMETRY)"
    )
    rows = []
    for n in range(streets):
        start = (rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0))
        end = (start[0] + rng.uniform(5.0, 20.0), start[1] + rng.uniform(5.0, 20.0))
        coords = shapes.wiggly_line(rng, start, end, segments=9).coords
        name = f"street {n % 5}"  # shared names across streets
        county = n % 3
        kind = "highway" if n % 2 else "local"
        pieces = [coords[i:i + 3] for i in range(0, len(coords) - 2, 2)]
        pieces.append(coords[1:4])  # re-laid over two neighbours
        for piece in pieces:
            rows.append((len(rows), name, county, kind, LineString(piece)))
    db.insert_rows("s", rows)
    db.execute("CREATE SPATIAL INDEX si ON s (geom)")
    db.execute("ANALYZE")
    return db


#: residual-bearing self-joins shaped like J-T1's line_touches_line and
#: line_overlaps_line (attribute conjuncts beside the spatial one)
RESIDUAL_JOINS = (
    "SELECT a.id, b.id FROM s a JOIN s b ON ST_Touches(a.geom, b.geom) "
    "WHERE a.id < b.id AND a.street = b.street AND a.county = b.county",
    "SELECT a.id, b.id FROM s a JOIN s b ON ST_Overlaps(a.geom, b.geom) "
    "WHERE a.id < b.id AND a.class = 'highway'",
    "SELECT a.id, b.id FROM s a JOIN s b ON ST_Intersects(a.geom, b.geom) "
    "WHERE a.county = b.county AND ST_Touches(a.geom, b.geom)",
)


class TestCheapResidualsFirst:
    """Attribute conjuncts run before DE-9IM refinement: same rows under
    every strategy, and no refinement for a pair they reject."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("sql", RESIDUAL_JOINS)
    def test_residual_joins_agree_with_nested_loop(self, profile, sql):
        db = _street_db(profile, seed=17)
        db.join_strategy = "nlj"
        truth = sorted(db.execute(sql).rows)
        assert truth, "the data must produce qualifying pairs"
        for strategy in STRATEGIES + ("auto",):
            db.join_strategy = strategy
            assert sorted(db.execute(sql).rows) == truth, (profile, strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES + ("nlj",))
    def test_refine_never_sees_a_pair_the_residual_rejects(
        self, strategy, monkeypatch
    ):
        db = _street_db("greenwood", seed=17)
        rows = db.execute("SELECT id, street, county, geom FROM s").rows
        attrs = {id(geom): (gid, street, county)
                 for gid, street, county, geom in rows}
        refined = []
        profile_class = type(db.profile)  # a frozen dataclass: stub the class
        real = profile_class.refine_predicate

        def counting_refine(self, name, ga, gb, stats=None):
            refined.append((attrs[id(ga)], attrs[id(gb)]))
            return real(self, name, ga, gb, stats)

        monkeypatch.setattr(profile_class, "refine_predicate", counting_refine)
        db.join_strategy = strategy
        db.stats.reset()
        got = db.execute(RESIDUAL_JOINS[0]).rows
        assert got and refined
        for (id_1, street_1, county_1), (id_2, street_2, county_2) in refined:
            assert street_1 == street_2 and county_1 == county_2
            assert id_1 != id_2
        if strategy != "nlj":  # forced off the spatial join: a HashJoin
            # the counters keep their meaning: candidates in, rows out
            snap = db.stats.snapshot()
            assert snap["join_pairs_emitted"] == len(got)
            assert snap["join_pairs_considered"] >= len(refined)

    def test_cheap_first_is_a_stable_partition(self):
        from repro.sql.parser import parse
        from repro.sql.planner import cheap_first, split_conjuncts

        stmt = parse(
            "SELECT 1 FROM s a, s b WHERE ST_Touches(a.geom, b.geom) "
            "AND a.street = b.street AND ST_Distance(a.geom, b.geom) < 1 "
            "AND a.id < b.id AND a.geom && b.geom AND a.county = b.county"
        )
        written = split_conjuncts(stmt.where)
        ordered = cheap_first(written)
        expected = [written[i] for i in (1, 3, 4, 5, 0, 2)]
        assert [id(c) for c in ordered] == [id(c) for c in expected]

    def test_written_order_holds_among_cheap_conjuncts(self):
        db = _street_db("greenwood", seed=17)
        # a false first conjunct short-circuits the division by zero...
        assert db.execute(
            "SELECT COUNT(*) FROM s WHERE id < 0 AND 1 / (id - id) = 1"
        ).rows == [(0,)]
        # ...which the written order would reach first the other way round
        with pytest.raises(Exception):
            db.execute(
                "SELECT COUNT(*) FROM s WHERE 1 / (id - id) = 1 AND id < 0"
            )


class TestIndexJoinProperty:
    """``SpatialIndex.join`` equals the brute-force pair set for every
    index kind combination, including the generic cross-kind fallback."""

    @pytest.mark.parametrize("kind_a", sorted(INDEX_KINDS))
    @pytest.mark.parametrize("kind_b", sorted(INDEX_KINDS))
    def test_join_matches_bruteforce(self, kind_a, kind_b):
        rng = random.Random(hash((kind_a, kind_b)) & 0xFFFF)

        def envs(n):
            out = []
            for i in range(n):
                x = rng.uniform(0, 80)
                y = rng.uniform(0, 80)
                out.append(
                    (i, Envelope(x, y, x + rng.uniform(0, 15),
                                 y + rng.uniform(0, 15)))
                )
            return out

        items_a = envs(35)
        items_b = envs(45)
        index_a = INDEX_KINDS[kind_a].bulk_load(items_a)
        index_b = INDEX_KINDS[kind_b].bulk_load(items_b)
        expected = sorted(
            (ia, ib)
            for ia, ea in items_a
            for ib, eb in items_b
            if ea.intersects(eb)
        )
        got = sorted(index_a.join(index_b))
        assert got == expected

    def test_empty_sides(self):
        full = INDEX_KINDS["rtree"].bulk_load(
            [(0, Envelope(0, 0, 1, 1))]
        )
        empty = INDEX_KINDS["rtree"].bulk_load([])
        assert list(empty.join(full)) == []
        assert list(full.join(empty)) == []
        assert list(LinearScanIndex().join(full)) == []


class TestPlannerChoice:
    """The cost model picks the expected algorithm per statistics regime
    and surfaces its decision in EXPLAIN."""

    def test_tiny_outer_prefers_inlj(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE small (id INTEGER, geom GEOMETRY)")
        db.execute("CREATE TABLE big (id INTEGER, geom GEOMETRY)")
        db.insert_rows("small", [(0, _poly(5, 5, 2)), (1, _poly(50, 50, 2))])
        rng = random.Random(1)
        db.insert_rows(
            "big",
            [
                (i, _poly(rng.uniform(0, 100), rng.uniform(0, 100), 1.5))
                for i in range(400)
            ],
        )
        db.execute("CREATE SPATIAL INDEX ibig ON big (geom)")
        db.execute("ANALYZE")
        plan = db.explain(
            "SELECT small.id, big.id FROM small, big "
            "WHERE ST_Intersects(small.geom, big.geom)"
        )
        assert "IndexNestedLoopJoin" in plan
        assert "-> inlj" in plan

    def test_both_indexed_prefers_tree(self):
        db = _build_db("greenwood", seed=2, n_a=120, n_b=150)
        plan = db.explain(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        assert "SpatialTreeJoin" in plan
        assert "-> tree" in plan
        assert "cost(" in plan

    def test_unindexed_prefers_pbsm(self):
        db = _build_db("greenwood", seed=2, n_a=120, n_b=150, indexed=False)
        plan = db.explain(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        assert "PBSMJoin" in plan
        assert "-> pbsm" in plan

    def test_forced_strategy_overrides_cost(self):
        db = _build_db("greenwood", seed=2, n_a=120, n_b=150)
        db.join_strategy = "pbsm"
        plan = db.explain(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        assert "PBSMJoin" in plan

    def test_forced_unavailable_falls_back(self):
        # tree needs both sides indexed; forcing it on bare tables must
        # still produce a working plan rather than an error
        db = _build_db("greenwood", seed=2, indexed=False)
        db.join_strategy = "tree"
        sql = "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        plan = db.explain(sql)
        assert "SpatialTreeJoin" not in plan
        db.execute(sql)

    def test_unknown_strategy_rejected(self):
        db = Database("greenwood")
        with pytest.raises(SqlPlanError):
            db.join_strategy = "zigzag"

    def test_dwithin_stays_inlj(self):
        db = _build_db("greenwood", seed=4)
        plan = db.explain(
            "SELECT a.id, b.id FROM a, b WHERE ST_DWithin(a.geom, b.geom, 2.0)"
        )
        assert "IndexNestedLoopJoin" in plan


def _poly(cx, cy, r):
    from repro.geometry import Polygon

    return Polygon(
        [(cx - r, cy - r), (cx + r, cy - r), (cx + r, cy + r), (cx - r, cy + r)]
    )


class TestAnalyzeAndCounters:
    def test_analyze_statement(self):
        db = _build_db("greenwood", seed=6, indexed=False)
        result = db.execute("ANALYZE a")
        assert result.rowcount == 1
        assert db.catalog.table("a").stats.analyzed
        result = db.execute("ANALYZE")
        assert result.rowcount == 2
        assert db.catalog.table("b").stats.analyzed

    def test_stats_track_incremental_inserts(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER, geom GEOMETRY)")
        db.execute("INSERT INTO t VALUES (1, ST_Point(3, 4))")
        col = db.catalog.table("t").stats.column("geom")
        assert col.count == 1
        assert col.bounds is not None and col.bounds.min_x == 3.0
        db.execute("DELETE FROM t WHERE id = 1")
        assert db.catalog.table("t").stats.column("geom").count == 0

    def test_join_counters_in_snapshot(self):
        db = _build_db("greenwood", seed=8)
        db.stats.reset()
        db.execute(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        snap = db.stats.snapshot()
        assert snap["join_pairs_considered"] >= snap["join_pairs_emitted"]
        assert snap["join_pairs_emitted"] > 0
        for key in ("partitions_built", "plan_cache_hits", "plan_cache_misses"):
            assert key in snap

    def test_pbsm_counts_partitions(self):
        db = _build_db("greenwood", seed=8, indexed=False)
        db.stats.reset()
        db.join_strategy = "pbsm"
        db.execute(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        assert db.stats.partitions_built > 0

    def test_plan_cache_hit_miss_counters(self):
        db = _build_db("greenwood", seed=8)
        db.stats.reset()
        sql = "SELECT COUNT(*) FROM a"
        db.execute(sql)
        db.execute(sql)
        db.execute(sql)
        snap = db.stats.snapshot()
        assert snap["plan_cache_misses"] == 1
        assert snap["plan_cache_hits"] == 2

    def test_plan_cache_lru_evicts_oldest(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.PLAN_CACHE_SIZE = 3
        queries = [f"SELECT {i} FROM t" for i in range(3)]
        for sql in queries:
            db.execute(sql)
        db.execute(queries[0])  # refresh: now queries[1] is the LRU entry
        db.execute("SELECT 99 FROM t")
        assert queries[0] in db._plan_cache
        assert queries[1] not in db._plan_cache

    def test_explain_analyze_shows_new_operators(self):
        db = _build_db("greenwood", seed=8)
        text = db.explain_analyze(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        assert "SpatialTreeJoin" in text
        assert "rows=" in text
