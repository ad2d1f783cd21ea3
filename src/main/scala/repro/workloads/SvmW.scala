package repro.workloads

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Linear SVM via batch subgradient descent on DataFrames (paper Table 2,
  * Machine Learning class) — the computation behind `AppModel.svm`.
  * Features (x0, x1, x2), label ∈ {−1, +1}.
  */
object SvmW {

  private val feats = Seq("x0", "x1", "x2")

  private def margin(w: Array[Double]) =
    feats.zip(w).map { case (f, wi) => col(f) * wi }.reduce(_ + _) * col("label")

  /** Average hinge-loss subgradient at `w` (no intercept, λ regularizer). */
  def gradient(data: DataFrame, w: Array[Double], lambda: Double = 1e-3): Array[Double] = {
    val viol = margin(w) < 1.0
    val aggs = feats.map(f => avg(when(viol, -col("label") * col(f)).otherwise(0.0)))
    val row = data.agg(aggs.head, aggs.tail: _*).collect()(0)
    w.indices.map(i => row.getDouble(i) + lambda * w(i)).toArray
  }

  /** Train for `epochs` full-batch steps; data is cached like the benchmark
    * caches its 100M-example training set.
    */
  def train(data: DataFrame, epochs: Int, lr: Double = 0.5): Array[Double] =
    withCached(data) { cached =>
      var w = Array(0.0, 0.0, 0.0)
      for (_ <- 1 to epochs)
        w = w.zip(gradient(cached, w)).map { case (wi, g) => wi - lr * g }
      w
    }

  /** Spark side of the oracle check: misclassification count at a fixed w. */
  def misclassified(data: DataFrame, w: Array[Double]): DataFrame = {
    val pred = feats.zip(w).map { case (f, wi) => col(f) * wi }.reduce(_ + _)
    data.select(sum(when(pred * col("label") <= 0.0, 1L).otherwise(0L)) as "errs")
  }

  /** DuckDB oracle over `pts(label, x0, x1, x2)` for the same fixed w. */
  def oracleErrSql(w: Array[Double]): String = {
    val pred = feats.zip(w).map { case (f, wi) => s"CAST($f AS DOUBLE) * $wi" }.mkString(" + ")
    s"SELECT SUM(CASE WHEN ($pred) * CAST(label AS DOUBLE) <= 0 THEN 1 ELSE 0 END) AS errs FROM pts"
  }
}
