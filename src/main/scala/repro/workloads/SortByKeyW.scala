package repro.workloads

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The SortByKey benchmark (paper Table 2): a full shuffle-sort, the
  * workload behind `AppModel.sortByKey` (external-sort spills, Obs 7).
  */
object SortByKeyW {

  /** Globally sorted (k, v) pairs — range-partitioned shuffle sort. The
    * range exchange is explicit, as in RDD `sortByKey`: on a one-partition
    * input `orderBy` alone would sort in place and shuffle nothing.
    */
  def sorted(pairs: DataFrame): DataFrame =
    pairs.repartitionByRange(col("k"), col("v")).sortWithinPartitions(col("k"), col("v"))

  /** The `limit` smallest pairs, for oracle comparison (a multiset check on
    * the full sorted output would not verify ordering; the smallest-k prefix
    * does).
    */
  def smallest(pairs: DataFrame, limit: Int): DataFrame =
    sorted(pairs).limit(limit).select(col("k"), round(col("v"), 6) as "v")

  def oracleSql(limit: Int): String =
    s"SELECT k, ROUND(CAST(v AS DOUBLE), 6) AS v FROM pairs ORDER BY CAST(k AS BIGINT), CAST(v AS DOUBLE) LIMIT $limit"
}
