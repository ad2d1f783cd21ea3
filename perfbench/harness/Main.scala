package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.Oracle
import scala.util.control.NonFatal

/** A benchmark workload: set-up, then passes over the same ops. */
trait Workload {
  /** Generate inputs and reference results; timed as part of set-up. */
  def setup(rec: Recorder): Unit
  def pass(rec: Recorder): PassResult
  def teardown(): Unit = ()
  /** Settings the run depends on, recorded with the result. */
  def env: Map[String, Any]
  /** Set-up measurements and per-run values, reported with the trace. */
  def extras: Map[String, Any] = Map.empty
}

/** Runs one workload: set-up and warm-up passes until the per-pass counts
  * repeat, then measured passes for the given number of seconds, and writes
  * the raw record (op times, counts, samples, spans, failures) as JSON.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>
  * }}}
  *
  * With `--trace 1`, every other measured pass is traced; untraced passes
  * give the baseline for the tracing overhead.
  */
object Main {

  val minWarmPasses = 2
  val maxWarmPasses = 3

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val name = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val rec = new Recorder

    val w: Workload = name match {
      case "tune-table8"     => new TuneTable8(seed)
      case "spark-iterative" => new SparkIterative(seed)
      case "tpch-oracle"     => new TpchOracle(seed)
      case other             => sys.error(s"unknown workload $other")
    }
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    w.setup(rec)
    val warm = Vector.newBuilder[PassResult]
    var last = w.pass(rec)
    warm += last
    var nWarm = 1
    var repeated = false
    while (nWarm < maxWarmPasses && !(repeated && nWarm >= minWarmPasses)) {
      val p = w.pass(rec)
      repeated = p.counts == last.counts
      last = p
      warm += p
      nWarm += 1
    }
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3

    val measured = Vector.newBuilder[PassResult]
    val t0 = System.nanoTime()
    var i = 0
    def elapsedS = (System.nanoTime() - t0) / 1e9
    while (elapsedS < seconds || (trace && i < 2)) {
      rec.tracing = trace && i % 2 == 1
      measured += w.pass(rec)
      rec.tracing = false
      i += 1
    }
    w.teardown()

    val record = Map(
      "workload" -> name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "env" -> w.env,
      "setup_s" -> setupS,
      "warm_passes" -> nWarm,
      "counts_repeated" -> repeated,
      "warm" -> warm.result(),
      "measured" -> measured.result(),
      "extras" -> w.extras,
      "samples" -> rec.samples,
      "spans" -> rec.spans.map(s => Seq(s.id, s.parent, s.name, s.startNs, s.endNs)),
      "rss_peak_mb" -> peakRssMb,
    )
    new ObjectMapper().registerModule(DefaultScalaModule).writeValue(new File(opt("out")), record)
  }

  /** Peak resident set size of this process (VmHWM), in MB. */
  def peakRssMb: Double = {
    val line = scala.io.Source.fromFile("/proc/self/status").getLines()
      .find(_.startsWith("VmHWM:")).getOrElse("VmHWM: 0 kB")
    line.split("\\s+")(1).toDouble / 1024.0
  }

  /** Time `body` as one op; an exception fails the op instead of the run.
    * `body` returns the op's signature and, for a traced pass, the layer
    * calls to replay once the op's span has closed (see `Recorder.replay`).
    */
  def op(rec: Recorder, name: String, attach: Boolean)(body: => (String, () => Unit)): Op = {
    val t0 = System.nanoTime()
    try {
      val (sig, replay) = rec.span(name)(body)
      val ms = (System.nanoTime() - t0) / 1e6
      rec.replay(attach)(replay())
      Op(name, ms, ok = true, sig)
    } catch {
      case NonFatal(e) =>
        Op(name, (System.nanoTime() - t0) / 1e6, ok = false, "",
          s"${e.getClass.getSimpleName}: ${e.getMessage}".take(500))
    }
  }
}

/** The pinned Spark environment shared by the Spark workloads. Partition
  * counts are fixed, independent of the core count, because SynthData's
  * generated rows depend on them.
  */
object Bench {
  val threads: Int = math.min(2, Runtime.getRuntime.availableProcessors())
  val defaultParallelism = 4
  val shufflePartitions = 8

  def session(localDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.default.parallelism", defaultParallelism.toLong)
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def env(spark: SparkSession): Map[String, Any] = Map(
    "master" -> spark.sparkContext.master,
    "spark.default.parallelism" -> defaultParallelism,
    "spark.sql.shuffle.partitions" -> shufflePartitions,
    "spark.sql.autoBroadcastJoinThreshold" -> -1,
    "nproc" -> Runtime.getRuntime.availableProcessors(),
    "spark.version" -> spark.version,
    "java.version" -> System.getProperty("java.version"),
  )

  def timeMs(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e6
  }

  /** Time an oracle call that loads `tables` and compares a single constant
    * row: table loading without the query and comparison.
    */
  def loadOnly(rec: Recorder, spark: SparkSession, tables: Seq[(String, DataFrame)]): Double = {
    val one = spark.createDataFrame(java.util.Arrays.asList(Row(1)),
      StructType(Seq(StructField("x", IntegerType))))
    timeMs(rec.span("oracle.load", "oracle.load_ms")(Oracle.assertEquivalent(one, "SELECT 1 AS x", tables: _*)))
  }

  /** Oracle loading counts of one pass, from the input each load read. */
  def oracleCounts(loads: Seq[String], rows: collection.Map[String, Long]): Map[String, Double] = Map(
    "oracle.table_loads" -> loads.size.toDouble,
    "oracle.rows_loaded" -> loads.map(rows).sum.toDouble,
    "oracle.distinct_table_frac" -> loads.distinct.size.toDouble / loads.size,
  )
}
