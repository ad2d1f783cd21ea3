package repro.workloads

import repro.{Oracle, SparkSpec, SynthData}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

class PageRankSpec extends SparkSpec {

  private lazy val edges = SynthData.edges(spark, nEdges = 4000, nNodes = 300).cache()

  test("one PageRank iteration matches the DuckDB oracle") {
    val stepped = PageRankW.step(edges, PageRankW.uniformRanks(edges))
      .select(col("node"), round(col("rank"), 6) as "rank")
    Oracle.assertEquivalent(stepped, PageRankW.oracleOneStepSql, "edges" -> edges)
  }

  test("ranks stay positive and bounded") {
    val ranks = PageRankW.run(edges, iters = 5)
    val stats = ranks.agg(min("rank"), max("rank")).collect()(0)
    assert(stats.getDouble(0) >= 0.15 - 1e-9)
    assert(stats.getDouble(1) < 1000)
    ranks.unpersist(); ()
  }

  test("iteration converges: successive rank vectors stop moving") {
    // step is r -> 0.15 + 0.85·M·r and M's columns sum to at most 1, so on any
    // graph the L1 change δ_k of iteration k contracts: δ_{k+1} <= 0.85·δ_k
    // (GraphX's damping). No bound on δ_8 itself holds for every graph.
    var ranks = PageRankW.uniformRanks(edges)
    val deltas = (1 to 8).map { _ =>
      val next = PageRankW.step(edges, ranks).localCheckpoint()
      val delta = next.as("a").join(ranks.as("b"), "node")
        .select(sum(abs(col("a.rank") - col("b.rank"))) as "d").collect()(0).getDouble(0)
      ranks = next
      delta
    }
    info(deltas.map(d => f"$d%.4f").mkString("δ1..δ8 = ", ", ", ""))
    for (k <- 1 to 7)
      assert(deltas(k) <= 0.85 * deltas(k - 1) * (1 + 1e-9), s"δ${k + 1} vs δ$k: $deltas")
  }

  test("zipf-skewed destinations earn higher ranks than the median node") {
    val ranks = PageRankW.run(edges, iters = 5)
    val top = ranks.orderBy(desc("rank")).limit(1).collect()(0).getDouble(1)
    val med = ranks.agg(expr("percentile_approx(rank, 0.5)")).collect()(0).getDouble(0)
    assert(top > 5 * med)
    ranks.unpersist(); ()
  }

  test("run leaves nothing cached") {
    val ranks = PageRankW.run(edges, iters = 2)
    assert(ranks.storageLevel == StorageLevel.NONE) // no CacheManager entry for `ranks`
  }

  test("run's plan has as many leaves at 6 iterations as at 2") {
    def leaves(iters: Int) = PageRankW.run(edges, iters).queryExecution.logical.collectLeaves().size
    assert(leaves(6) == leaves(2))
  }

  test("run's checkpointed ranks equal un-checkpointed steps") {
    var stepped = PageRankW.uniformRanks(edges)
    for (_ <- 1 to 3) stepped = PageRankW.step(edges, stepped)
    def byNode(df: DataFrame) =
      df.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val expected = byNode(stepped)
    val got = byNode(PageRankW.run(edges, iters = 3))
    assert(got.keySet == expected.keySet)
    for ((node, rank) <- expected) assert(math.abs(got(node) - rank) < 1e-9, s"node $node")
  }
}
