package repro

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Generators are deterministic in (sf, seed) and
  * do not depend on partitioning, so the DuckDB oracle sees identical input
  * and every core count builds the same rows: each drawn value is a function
  * of the row's key (`id`; in `orders`, `customer` and `part` the table's
  * key column) and its column's seed, never of Spark's `rand`/`randn`, whose
  * streams restart in every partition. `u` draws a uniform, `gauss` a normal.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  private val id = col("id")

  /** Uniform in [0, 1) for the row keyed `key`: the top 53 bits of
    * xxhash64(key, salt…) divided by 2^53, taken as a product with 2^-53
    * (the same value). Spark marks every quotient nullable, unlike `rand`,
    * and nullable inputs slow K-means, SVM and PageRank with null checks
    * and join-key filters.
    */
  private def u(key: Column, salt: Long*): Column =
    shiftrightunsigned(xxhash64(key +: salt.map(lit): _*), 11) * math.pow(2, -53)

  /** Standard normal for the row keyed `key`: Box–Muller over two uniforms
    * of `seed`. 1 − u lies in (0, 1], so the log is finite; the `coalesce`
    * only keeps the column non-nullable, as in `u`.
    */
  private def gauss(key: Column, seed: Long): Column =
    sqrt(coalesce(log(lit(1.0) - u(key, seed)), lit(0.0)) * -2.0) *
      cos(u(key, seed, 1) * (2 * math.Pi))

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(n(NLineitemPerSf, sf)).select(
      (u(id, seed)     * nOrders + 1).cast(LongType)    as "l_orderkey",
      (u(id, seed + 1) * nPart   + 1).cast(LongType)    as "l_partkey",
      (u(id, seed + 2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (u(id, seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(u(id, seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(u(id, seed + 5) * 0.10, 2)                  as "l_discount",
      round(u(id, seed + 6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (u(id, seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (u(id, seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (u(id, seed + 9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    val nCust = n(NCustomerPerSf, sf)
    val key = col("o_orderkey")
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      key,
      (u(key, seed)     * nCust + 1).cast(LongType)      as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (u(key, seed + 1) * 3 + 1).cast("int")) as "o_orderstatus",
      round(u(key, seed + 2) * 500000 + 1000, 2)         as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (u(key, seed + 3) * 2406).cast("int"))    as "o_orderdate",
    )
  }

  def customer(spark: SparkSession, sf: Double = 0.01, seed: Long = 2): DataFrame = {
    val key = col("c_custkey")
    spark.range(1, n(NCustomerPerSf, sf) + 1).toDF("c_custkey").select(
      key,
      (u(key, seed) * 25).cast(IntegerType)              as "c_nationkey",
      round(u(key, seed + 1) * 10000 - 1000, 2)          as "c_acctbal",
      element_at(array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
                       lit("HOUSEHOLD"), lit("FURNITURE")),
                 (u(key, seed + 2) * 5 + 1).cast("int")) as "c_mktsegment",
    )
  }

  def part(spark: SparkSession, sf: Double = 0.01, seed: Long = 5): DataFrame = {
    val key = col("p_partkey")
    spark.range(1, n(NPartPerSf, sf) + 1).toDF("p_partkey").select(
      key,
      element_at(array(lit("STANDARD"), lit("SMALL"), lit("MEDIUM"),
                       lit("LARGE"), lit("ECONOMY"), lit("PROMO")),
                 (u(key, seed) * 6 + 1).cast("int")) as "p_type",
      (u(key, seed + 1) * 50 + 1).cast(IntegerType)  as "p_size",
      round(lit(900.0) + (key % 1000) / 10.0, 2)     as "p_retailprice",
    )
  }

  def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 4): DataFrame =
    spark.range(rows).select(
      (u(id, seed) * nKeys + 1).cast(LongType) as "k",
      u(id, seed + 1)                          as "v",
    )

  // ----- Extensions for the paper's benchmark suite (Table 2 analogues) -----

  /** Synthetic text corpus à la Hadoop RandomTextWriter: `lines` rows of
    * `wordsPerLine` space-separated words drawn uniformly from a `vocab`-word
    * dictionary. Column: `line`.
    */
  def textLines(spark: SparkSession, lines: Long, wordsPerLine: Int = 8,
                vocab: Int = 200, seed: Long = 6): DataFrame = {
    val word = (i: Int) =>
      concat(lit("w"), ((u(id, seed + i) * vocab).cast(IntegerType)).cast(StringType))
    spark.range(lines).select(
      concat_ws(" ", (0 until wordsPerLine).map(word): _*) as "line"
    )
  }

  /** Synthetic directed graph à la LiveJournal: zipf-skewed destination
    * popularity over `nNodes` nodes. Columns: `src`, `dst` (1-based).
    */
  def edges(spark: SparkSession, nEdges: Long, nNodes: Long, seed: Long = 7): DataFrame = {
    import spark.implicits._
    val zipfDst = least(lit(nNodes), greatest(lit(1L),
      pow(lit(1.0) / (u(id, seed + 1) + 1e-9), lit(1.0 / 1.3)).cast(LongType)))
    spark.range(nEdges).select(
      (u(id, seed) * nNodes + 1).cast(LongType) as "src",
      zipfDst                                   as "dst",
    ).where($"src" =!= $"dst")
  }

  /** Gaussian-mixture points à la HiBench K-means input: `k` well-separated
    * cluster centers on a grid, 2-D. Columns: `id`, `x0`, `x1`, `trueCluster`.
    */
  def points(spark: SparkSession, n: Long, k: Int, spread: Double = 0.5,
             seed: Long = 8): DataFrame = {
    import spark.implicits._
    val cluster = (u(id, seed) * k).cast(IntegerType)
    spark.range(n).select(
      $"id",
      cluster as "trueCluster",
    ).select(
      $"id", $"trueCluster",
      ($"trueCluster" % 3) * 10.0 + gauss(id, seed + 1) * spread      as "x0",
      floor($"trueCluster" / 3) * 10.0 + gauss(id, seed + 2) * spread as "x1",
    )
  }

  /** Linearly-separable labeled points à la HiBench SVM input: label is the
    * sign of w·x + noise-free margin. Columns: `label` (±1), `x0`, `x1`, `x2`.
    */
  def labeledPoints(spark: SparkSession, n: Long, seed: Long = 9): DataFrame = {
    import spark.implicits._
    val df = spark.range(n).select(
      gauss(id, seed)     as "x0",
      gauss(id, seed + 1) as "x1",
      gauss(id, seed + 2) as "x2",
    )
    // True separator w = (1, -2, 0.5) with a margin band removed.
    val m = df.col("x0") - df.col("x1") * 2.0 + df.col("x2") * 0.5
    df.where(abs(m) > lit(0.3))
      .select(when(m > 0, 1.0).otherwise(-1.0) as "label", $"x0", $"x1", $"x2")
  }
}
