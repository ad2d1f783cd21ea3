package repro.workloads

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.annotation.unused

/** Lloyd's K-means on DataFrames (paper Table 2, Machine Learning class) —
  * the iterative cache-hungry computation behind `AppModel.kMeans`.
  * 2-D points with columns (id, x0, x1).
  */
object KMeansW {

  final case class Center(cluster: Int, x0: Double, x1: Double)

  /** Assign each point to the nearest of `centers` (squared Euclidean). */
  def assign(points: DataFrame, centers: Seq[Center]): DataFrame = {
    require(centers.nonEmpty)
    val dist = centers.map { c =>
      struct(
        (pow(col("x0") - c.x0, 2) + pow(col("x1") - c.x1, 2)) as "d",
        lit(c.cluster) as "cluster")
    }
    points.withColumn("assigned", least(dist: _*).getField("cluster"))
  }

  /** One Lloyd iteration: assignment + centroid recomputation. */
  def step(points: DataFrame, centers: Seq[Center]): Seq[Center] =
    assign(points, centers)
      .groupBy("assigned")
      .agg(avg("x0") as "x0", avg("x1") as "x1")
      .collect()
      .map(r => Center(r.getInt(0), r.getDouble(1), r.getDouble(2)))
      .toSeq
      .sortBy(_.cluster)

  /** Full run from k seeded centers; the points DataFrame is cached across
    * iterations exactly like the benchmark caches its training set. The
    * benchmark harness still passes the unused `spark` (ROADMAP item 8).
    */
  def run(@unused spark: SparkSession, points: DataFrame, k: Int, iters: Int,
          seed: Long = 11): (Seq[Center], Double) = withCached(points) { cached =>
    val init = cached.orderBy(abs(hash(col("id"), lit(seed)))).limit(k).collect()
      .zipWithIndex
      .map { case (r, i) =>
        Center(i, r.getAs[Double]("x0"), r.getAs[Double]("x1"))
      }.toSeq
    val finalCenters = (1 to iters).foldLeft(init)((cs, _) => step(cached, cs))
    (finalCenters, inertia(cached, finalCenters))
  }

  /** Sum of squared distances to the assigned center. */
  def inertia(points: DataFrame, centers: Seq[Center]): Double = {
    val dist = centers.map(c => pow(col("x0") - c.x0, 2) + pow(col("x1") - c.x1, 2))
    points.select(sum(least(dist: _*)) as "i").collect()(0).getDouble(0)
  }

  /** DuckDB oracle for a 2-center assignment count over `pts(x0, x1)`. */
  def oracleAssignCountSql(c0: Center, c1: Center): String =
    s"""SELECT CASE WHEN (POW(CAST(x0 AS DOUBLE) - ${c0.x0}, 2) + POW(CAST(x1 AS DOUBLE) - ${c0.x1}, 2))
       |            <= (POW(CAST(x0 AS DOUBLE) - ${c1.x0}, 2) + POW(CAST(x1 AS DOUBLE) - ${c1.x1}, 2))
       |       THEN ${c0.cluster} ELSE ${c1.cluster} END AS assigned, COUNT(*) AS cnt
       |FROM pts GROUP BY 1""".stripMargin
}
