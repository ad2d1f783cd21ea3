package repro.workloads

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** PageRank on DataFrames (paper Table 2, Graph class; the paper runs
  * GraphX's LiveJournalPageRank) — the iterative join/aggregate pattern
  * behind `AppModel.pageRank`. Edges: (src, dst).
  */
object PageRankW {

  val damping = 0.85

  /** Out-degree per source node. */
  def outDegrees(edges: DataFrame): DataFrame =
    edges.groupBy("src").agg(count(lit(1)) as "outDeg")

  /** One PageRank iteration: contributions flow along edges, ranks update to
    * (1−d) + d·Σ contribs (GraphX's formulation, no dangling redistribution).
    */
  def step(edges: DataFrame, ranks: DataFrame): DataFrame = {
    val contribs = edges
      .join(ranks, edges("src") === ranks("node"))
      .join(outDegrees(edges), "src")
      .select(col("dst") as "node", (col("rank") / col("outDeg")) as "contrib")
      .groupBy("node")
      .agg(sum("contrib") as "contrib")
    ranks.select(col("node"))
      .join(contribs, Seq("node"), "left")
      .select(col("node"),
        (lit(1.0 - damping) + lit(damping) * coalesce(col("contrib"), lit(0.0))) as "rank")
  }

  /** Run `iters` iterations from uniform ranks over the edge set's nodes.
    * The initial ranks and each iteration's result are local-checkpointed
    * (computed eagerly), so every iteration reads the cached edges,
    * mirroring the benchmark's cached coalesced edge partitions (Sec 3.5),
    * and `step` always sees `ranks` as a single leaf: the plan does not grow
    * with `iters`, and every iteration runs the same plan shape.
    * Returns the last checkpoint; nothing is left cached.
    */
  def run(edges: DataFrame, iters: Int): DataFrame = {
    val cached = edges.cache()
    try {
      val nodes = cached.select(col("src") as "node")
        .union(cached.select(col("dst") as "node")).distinct()
      var ranks = nodes.select(col("node"), lit(1.0) as "rank").localCheckpoint()
      for (_ <- 1 to iters) ranks = step(cached, ranks).localCheckpoint()
      ranks
    } finally { cached.unpersist(); () }
  }

  /** DuckDB oracle for ONE iteration from uniform rank 1.0, over an
    * `edges(src, dst)` table — same join/aggregate semantics as `step`.
    */
  val oracleOneStepSql: String =
    """WITH nodes AS (SELECT DISTINCT CAST(src AS BIGINT) AS node FROM edges
      |               UNION SELECT DISTINCT CAST(dst AS BIGINT) FROM edges),
      |     deg AS (SELECT CAST(src AS BIGINT) AS src, COUNT(*) AS outdeg FROM edges GROUP BY 1),
      |     contrib AS (SELECT CAST(e.dst AS BIGINT) AS node, SUM(1.0 / d.outdeg) AS c
      |                 FROM edges e JOIN deg d ON CAST(e.src AS BIGINT) = d.src GROUP BY 1)
      |SELECT n.node AS node, ROUND(0.15 + 0.85 * COALESCE(c.c, 0.0), 6) AS rank
      |FROM nodes n LEFT JOIN contrib c ON n.node = c.node""".stripMargin
}
