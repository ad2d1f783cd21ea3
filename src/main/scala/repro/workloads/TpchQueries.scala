package repro.workloads

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DecimalType
import repro.SynthData

/** TPC-H-lite query suite (paper Table 2 "SQL" class / Fig 21) over the
  * SynthData schema (lineitem, orders, customer, part).
  *
  * Each query returns the Spark DataFrame and the DuckDB SQL that must
  * produce identical rows (the SynthData tables are registered as VARCHAR in
  * DuckDB, hence the CASTs). Money is summed as DECIMAL(12,2), TPC-H's type
  * for these columns, so every money sum is exact: a double sum depends on
  * the order its terms are added in, which differs between the engines and
  * with the partitioning.
  */
object TpchQueries {

  private def money(c: String): Column = col(c).cast(DecimalType(12, 2))

  /** The four tables at scale `sf`. Seed 0 gives each generator its default
    * seed; another seed shifts all four, giving other rows of the same sizes.
    */
  final case class Tpch(spark: SparkSession, sf: Double, seed: Long = 0) {
    val lineitem: DataFrame = SynthData.lineitem(spark, sf, seed)
    val orders: DataFrame   = SynthData.orders(spark, sf, seed + 1)
    val customer: DataFrame = SynthData.customer(spark, sf, seed + 2)
    val part: DataFrame     = SynthData.part(spark, sf, seed + 5)
  }

  final case class Query(name: String, spark: DataFrame, duckSql: String,
                         tables: Seq[String])

  /** Q1: pricing summary report (full aggregation over lineitem). */
  def q1(t: Tpch): Query = Query(
    "Q1",
    t.lineitem
      .where(col("l_shipdate") <= lit("1998-09-01"))
      .groupBy("l_returnflag", "l_linestatus")
      .agg(
        round(sum("l_quantity"), 0) as "sum_qty",
        sum(money("l_extendedprice")) as "sum_base_price",
        sum(money("l_extendedprice") * (lit(1) - money("l_discount"))) as "sum_disc_price",
        round(avg("l_quantity"), 4) as "avg_qty",
        count(lit(1)) as "count_order"),
    """SELECT l_returnflag, l_linestatus,
      |  ROUND(SUM(CAST(l_quantity AS DOUBLE)), 0) AS sum_qty,
      |  SUM(CAST(l_extendedprice AS DECIMAL(12,2))) AS sum_base_price,
      |  SUM(CAST(l_extendedprice AS DECIMAL(12,2)) * (1 - CAST(l_discount AS DECIMAL(12,2)))) AS sum_disc_price,
      |  ROUND(AVG(CAST(l_quantity AS DOUBLE)), 4) AS avg_qty,
      |  COUNT(*) AS count_order
      |FROM lineitem WHERE l_shipdate <= '1998-09-01'
      |GROUP BY l_returnflag, l_linestatus""".stripMargin,
    Seq("lineitem"))

  /** Q3-lite: revenue per market segment for pre-1995 orders shipped later. */
  def q3(t: Tpch): Query = Query(
    "Q3",
    t.customer
      .join(t.orders, col("c_custkey") === col("o_custkey"))
      .join(t.lineitem, col("o_orderkey") === col("l_orderkey"))
      .where(col("o_orderdate") < lit("1995-03-15") && col("l_shipdate") > lit("1995-03-15"))
      .groupBy("c_mktsegment")
      .agg(sum(money("l_extendedprice") * (lit(1) - money("l_discount"))) as "revenue",
           count(lit(1)) as "cnt"),
    """SELECT c_mktsegment,
      |  SUM(CAST(l_extendedprice AS DECIMAL(12,2)) * (1 - CAST(l_discount AS DECIMAL(12,2)))) AS revenue,
      |  COUNT(*) AS cnt
      |FROM customer JOIN orders ON c_custkey = o_custkey
      |              JOIN lineitem ON o_orderkey = l_orderkey
      |WHERE o_orderdate < '1995-03-15' AND l_shipdate > '1995-03-15'
      |GROUP BY c_mktsegment""".stripMargin,
    Seq("customer", "orders", "lineitem"))

  /** Q5-lite: 1994 revenue per customer nation. */
  def q5(t: Tpch): Query = Query(
    "Q5",
    t.customer
      .join(t.orders, col("c_custkey") === col("o_custkey"))
      .join(t.lineitem, col("o_orderkey") === col("l_orderkey"))
      .where(col("o_orderdate") >= lit("1994-01-01") && col("o_orderdate") < lit("1995-01-01"))
      .groupBy("c_nationkey")
      .agg(sum(money("l_extendedprice") * (lit(1) - money("l_discount"))) as "revenue"),
    """SELECT c_nationkey,
      |  SUM(CAST(l_extendedprice AS DECIMAL(12,2)) * (1 - CAST(l_discount AS DECIMAL(12,2)))) AS revenue
      |FROM customer JOIN orders ON c_custkey = o_custkey
      |              JOIN lineitem ON o_orderkey = l_orderkey
      |WHERE o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01'
      |GROUP BY c_nationkey""".stripMargin,
    Seq("customer", "orders", "lineitem"))

  /** Q6: forecasting revenue change (highly selective scan). */
  def q6(t: Tpch): Query = Query(
    "Q6",
    t.lineitem
      .where(col("l_shipdate") >= lit("1994-01-01") && col("l_shipdate") < lit("1995-01-01") &&
        col("l_discount").between(0.05, 0.07) && col("l_quantity") < 24)
      .agg(sum(money("l_extendedprice") * money("l_discount")) as "revenue"),
    """SELECT SUM(CAST(l_extendedprice AS DECIMAL(12,2)) * CAST(l_discount AS DECIMAL(12,2))) AS revenue
      |FROM lineitem
      |WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
      |  AND CAST(l_discount AS DOUBLE) BETWEEN 0.05 AND 0.07
      |  AND CAST(l_quantity AS DOUBLE) < 24""".stripMargin,
    Seq("lineitem"))

  /** Q12-lite: line counts per order status for 1994 shipments. */
  def q12(t: Tpch): Query = Query(
    "Q12",
    t.orders
      .join(t.lineitem, col("o_orderkey") === col("l_orderkey"))
      .where(col("l_shipdate") >= lit("1994-01-01") && col("l_shipdate") < lit("1995-01-01"))
      .groupBy("o_orderstatus")
      .agg(count(lit(1)) as "cnt"),
    """SELECT o_orderstatus, COUNT(*) AS cnt
      |FROM orders JOIN lineitem ON o_orderkey = l_orderkey
      |WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
      |GROUP BY o_orderstatus""".stripMargin,
    Seq("orders", "lineitem"))

  /** Q14-lite: revenue per part type (promotion-effect building block). */
  def q14(t: Tpch): Query = Query(
    "Q14",
    t.lineitem
      .join(t.part, col("l_partkey") === col("p_partkey"))
      .groupBy("p_type")
      .agg(sum(money("l_extendedprice") * (lit(1) - money("l_discount"))) as "revenue"),
    """SELECT p_type,
      |  SUM(CAST(l_extendedprice AS DECIMAL(12,2)) * (1 - CAST(l_discount AS DECIMAL(12,2)))) AS revenue
      |FROM lineitem JOIN part ON l_partkey = p_partkey
      |GROUP BY p_type""".stripMargin,
    Seq("lineitem", "part"))

  def all(t: Tpch): Seq[Query] = Seq(q1(t), q3(t), q5(t), q6(t), q12(t), q14(t))
}
