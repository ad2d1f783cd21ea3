package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.{Oracle, SynthData}
import repro.workloads._
import scala.collection.mutable

/** The five real Spark jobs of the paper's suite (WordCount, SortByKey,
  * K-means, SVM, PageRank) on inputs generated once per run. Each job runs
  * under `MetricsCollector.profile` and is followed by its small-output
  * DuckDB oracle check; PageRank runs through `PageRankW.run` at the five
  * iterations `WorkloadsJob` uses.
  */
final class SparkIterative(seed: Long) extends Workload {

  private var spark: SparkSession = _
  private val inputs = mutable.LinkedHashMap.empty[String, DataFrame]
  private val genMs = mutable.LinkedHashMap.empty[String, Double]
  private val rows = mutable.LinkedHashMap.empty[String, Long]
  private val pageRankIters = 5

  def env: Map[String, Any] = Bench.env(spark) ++ Map("pagerank_iterations" -> pageRankIters)

  override def extras: Map[String, Any] = Map("synth_gen_ms" -> genMs, "synth_rows" -> rows)

  def setup(rec: Recorder): Unit = {
    spark = Bench.session(".bench_build/spark-local")
    val base = seed * 1000
    // Materialised once: the jobs cache and unpersist their own copies.
    def gen(name: String)(df: => DataFrame): Unit = {
      val t0 = System.nanoTime()
      val d = df.localCheckpoint()
      rows(name) = d.count()
      genMs(name) = (System.nanoTime() - t0) / 1e6
      inputs(name) = d
    }
    gen("text")(SynthData.textLines(spark, 1000, 8, 500, seed = base + 6))
    gen("pairs")(SynthData.uniformKeys(spark, 1000, 500, seed = base + 4))
    gen("points")(SynthData.points(spark, 1000, 3, seed = base + 8))
    gen("labeled")(SynthData.labeledPoints(spark, 1000, seed = base + 9))
    gen("edges")(SynthData.edges(spark, 2000, 300, seed = base + 7))
  }

  override def teardown(): Unit = spark.stop()

  def pass(rec: Recorder): PassResult = {
    val inputRows = inputs.map { case (k, d) => k -> d.count() }.toMap
    val t0 = System.nanoTime()
    val fp = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    val loads = mutable.ArrayBuffer.empty[String]
    var tasks = 0L

    /** Profile `run`, then run the oracle check built from its result over
      * the one input table it reads.
      */
    def job[T](name: String, input: String)(run: => T)(oracle: T => (DataFrame, String, (String, DataFrame)))
              (signature: T => String): Op =
      Main.op(rec, name, attach = false) {
        val (r, f) = rec.span("spark.job", s"spark.job_ms.$name")(MetricsCollector.profile(spark)(run))
        tasks += f.tasks
        fp("spark.task_ms") += f.totalTaskMs
        fp("spark.gc_ms") += f.gcTimeMs
        fp("spark.shuffle_write_mb") += f.shuffleWriteBytes / 1e6
        fp("spark.spill_mb") += f.spilledBytes / 1e6
        fp("spark.peak_exec_mb") = math.max(fp("spark.peak_exec_mb"), f.peakExecutionMemory / 1e6)
        val (df, sql, table) = oracle(r)
        loads += input
        val fullMs = Bench.timeMs(rec.span("oracle.full")(Oracle.assertEquivalent(df, sql, table)))
        (signature(r), () => {
          val loadMs = Bench.loadOnly(rec, spark, Seq(table))
          rec.sample("oracle.compare_ms", fullMs - loadMs)
          if (name == "pagerank") {
            replayPageRank(rec)
            rec.span("metrics.drain", "metrics.drain_ms")(MetricsCollector.profile(spark)(()))
          }
        })
      }

    val text = inputs("text"); val pairs = inputs("pairs"); val points = inputs("points")
    val labeled = inputs("labeled"); val edges = inputs("edges")
    val ops = Seq(
      job("wordcount", "text")(WordCountW.wordCounts(text).collect())(
        r => (spark.createDataFrame(java.util.Arrays.asList(r: _*), WordCountW.wordCounts(text).schema),
              WordCountW.oracleSql, "text" -> text))(
        r => r.map(_.toString).sorted.mkString(";").hashCode.toString),
      job("sortbykey", "pairs")(SortByKeyW.sorted(pairs).collect()) { r =>
        val ks = r.map(_.getLong(0))
        require(ks.length == inputRows("pairs") && ks.sameElements(ks.sorted), "sort output is not sorted")
        (SortByKeyW.smallest(pairs, 50), SortByKeyW.oracleSql(50), "pairs" -> pairs)
      }(r => r.take(50).mkString(";").hashCode.toString),
      job("kmeans", "points")(KMeansW.run(spark, points, k = 3, iters = 4)) { case (cs, _) =>
        val Seq(c0, c1) = cs.take(2)
        val counts = KMeansW.assign(points, Seq(c0, c1)).groupBy("assigned").agg(count(lit(1)) as "cnt")
        (counts, KMeansW.oracleAssignCountSql(c0, c1), "pts" -> points.select("x0", "x1"))
      } { case (cs, _) => cs.map(c => f"${c.x0}%.6f,${c.x1}%.6f").mkString(";") },
      job("svm", "labeled")(SvmW.train(labeled, epochs = 8))(
        w => (SvmW.misclassified(labeled, w), SvmW.oracleErrSql(w), "pts" -> labeled))(
        w => w.map(x => f"$x%.9f").mkString(",")),
      job("pagerank", "edges") {
        val ranks = PageRankW.run(edges, pageRankIters)
        try ranks.agg(count(lit(1)), sum("rank")).collect()(0) finally { ranks.unpersist(); () }
      } { _ =>
        val nodes = edges.select(col("src") as "node").union(edges.select(col("dst") as "node")).distinct()
        val stepped = PageRankW.step(edges, nodes.select(col("node"), lit(1.0) as "rank"))
          .select(col("node"), round(col("rank"), 6) as "rank")
        (stepped, PageRankW.oracleOneStepSql, "edges" -> edges)
      }(r => f"${r.getLong(0)} ${r.getDouble(1)}%.6f"),
    )
    val counts = Bench.oracleCounts(loads.toSeq, rows) + ("spark.tasks" -> tasks.toDouble)
    val wall = (System.nanoTime() - t0) / 1e6 - rec.takeReplayMs()
    PassResult(rec.tracing, wall, ops, counts, inputRows, fp.toMap)
  }

  /** `PageRankW.run`'s iterations one `step` at a time, each materialised,
    * to show how the cost and the plan grow with the iteration count.
    */
  private def replayPageRank(rec: Recorder): Unit = {
    val edges = inputs("edges")
    val nodes = edges.select(col("src") as "node").union(edges.select(col("dst") as "node")).distinct()
    var ranks = nodes.select(col("node"), lit(1.0) as "rank")
    for (i <- 1 to pageRankIters) {
      ranks = PageRankW.step(edges, ranks)
      val metric = if (i == 1) "pagerank.iter_ms.first" else if (i == pageRankIters) "pagerank.iter_ms.last" else ""
      rec.span("pagerank.step", metric)(ranks.agg(sum("rank")).collect())
    }
    rec.sample("pagerank.plan_leaves", ranks.queryExecution.logical.collectLeaves().size)
  }
}
