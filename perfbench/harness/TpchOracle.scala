package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.workloads.TpchQueries
import scala.collection.mutable

/** The six TPC-H-lite queries over cached SynthData tables, each checked
  * with `Oracle.assertEquivalent` exactly as `TpchSpec` does: the oracle
  * reloads every table each query reads. Not profiled.
  */
final class TpchOracle(seed: Long) extends Workload {

  val sf = 0.0002
  private var spark: SparkSession = _
  private var queries: Seq[TpchQueries.Query] = Nil
  private val tables = mutable.LinkedHashMap.empty[String, DataFrame]
  private val genMs = mutable.LinkedHashMap.empty[String, Double]
  private val rows = mutable.LinkedHashMap.empty[String, Long]

  def env: Map[String, Any] = Bench.env(spark) ++ Map("sf" -> sf)

  override def extras: Map[String, Any] = Map("synth_gen_ms" -> genMs, "synth_rows" -> rows)

  def setup(rec: Recorder): Unit = {
    spark = Bench.session(".bench_build/spark-local")
    val t = TpchQueries.Tpch(spark, sf, seed)
    for ((name, df) <- Seq("lineitem" -> t.lineitem, "orders" -> t.orders,
                           "customer" -> t.customer, "part" -> t.part)) {
      val t0 = System.nanoTime()
      rows(name) = df.cache().count()
      genMs(name) = (System.nanoTime() - t0) / 1e6
      tables(name) = df
    }
    queries = TpchQueries.all(t)
  }

  override def teardown(): Unit = spark.stop()

  def pass(rec: Recorder): PassResult = {
    val inputRows = tables.map { case (k, d) => k -> d.count() }.toMap
    val t0 = System.nanoTime()
    val loads = mutable.ArrayBuffer.empty[String]
    val ops = queries.map { q =>
      val ts = q.tables.map(n => n -> tables(n))
      loads ++= q.tables
      Main.op(rec, q.name.toLowerCase, attach = false) {
        val fullMs = Bench.timeMs(rec.span("oracle.full")(Oracle.assertEquivalent(q.spark, q.duckSql, ts: _*)))
        // The oracle alone checks the output; the signature is only the name.
        (q.name, () => {
          val loadMs = Bench.loadOnly(rec, spark, ts)
          rec.sample("oracle.compare_ms", fullMs - loadMs)
          rec.span("spark.job", s"spark.job_ms.${q.name.toLowerCase}")(q.spark.collect())
          ()
        })
      }
    }
    val wall = (System.nanoTime() - t0) / 1e6 - rec.takeReplayMs()
    PassResult(rec.tracing, wall, ops, Bench.oracleCounts(loads.toSeq, rows), inputRows)
  }
}
