package repro.workloads

import repro.{Oracle, SparkSpec}
import TpchQueries._

/** The TPC-H-lite SQL suite: every query oracle-checked against DuckDB over
  * the same synthetic tables (paper Table 2 "SQL" class, Fig 21 workload).
  */
class TpchSpec extends SparkSpec {

  private lazy val t = Tpch(spark, sf = 0.01)
  private lazy val tables: Map[String, org.apache.spark.sql.DataFrame] = Map(
    "lineitem" -> t.lineitem.cache(),
    "orders" -> t.orders.cache(),
    "customer" -> t.customer.cache(),
    "part" -> t.part.cache(),
  )

  for (q <- all(t)) {
    test(s"${q.name} matches the DuckDB oracle") {
      Oracle.assertEquivalent(q.spark, q.duckSql, q.tables.map(n => n -> tables(n)): _*)
    }
  }

  test("Q1 aggregates all six return-flag/status groups") {
    assert(q1(t).spark.count() == 6)
  }

  test("Q6 is a single highly-selective aggregate") {
    val df = q6(t).spark
    assert(df.count() == 1)
    assert(df.collect()(0).getDecimal(0).signum > 0)
  }

  test("Q1's money sums do not depend on how lineitem is partitioned (sf 0.0002, seed 5)") {
    // Group N/O's sum_base_price is exactly 9648905.50 here, so a double sum
    // rounds to a whole unit either way depending on the order it adds its
    // terms in. The layouts vary the order on both sides: Spark's through
    // the partitions `spark.range` makes, DuckDB's through the row order it
    // loads.
    for (n <- Seq(1, 2, 3, 12)) {
      spark.conf.set("spark.sql.leafNodeDefaultParallelism", n.toLong)
      try {
        val t5 = Tpch(spark, sf = 0.0002, seed = 5)
        val q = q1(t5)
        Oracle.assertEquivalent(q.spark, q.duckSql, "lineitem" -> t5.lineitem.repartition(n))
      } finally spark.conf.unset("spark.sql.leafNodeDefaultParallelism")
    }
  }

  test("the join queries exercise the shuffle-join path (broadcast disabled)") {
    val plan = q3(t).spark.queryExecution.executedPlan.toString
    assert(plan.contains("SortMergeJoin") || plan.contains("ShuffledHashJoin"), plan.take(500))
  }

  test("the suite covers scans, joins and multi-table aggregation") {
    val qs = all(t)
    assert(qs.size == 6)
    assert(qs.exists(_.tables.size >= 3)) // customer ⋈ orders ⋈ lineitem
    assert(qs.exists(_.tables == Seq("lineitem")))
  }
}
