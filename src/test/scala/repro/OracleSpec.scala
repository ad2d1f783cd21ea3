package repro

import java.sql.SQLException
import java.util.UUID
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.{ListenerBusDrain, SparkException}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import scala.jdk.CollectionConverters._

/** The DuckDB oracle itself: how it loads tables and when it rejects. */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val kv = Seq(("a", Some("x")), ("b", None), ("c", None)).toDF("k", "v")

  /** The number of Spark jobs `body` starts, counted in a job group of its own. */
  private def jobsOf(body: => Any): Int = {
    val sc = spark.sparkContext
    val group = s"oracle-spec-${UUID.randomUUID}"
    val started = new ConcurrentLinkedQueue[Int]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == group) started.add(e.jobId)
    }
    sc.addSparkListener(listener)
    sc.setJobGroup(group, "jobs counted by OracleSpec")
    try { body; ListenerBusDrain(sc); started.size }
    finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  test("null cells load as SQL NULL, not the string \"null\"") {
    Oracle.assertEquivalent(kv.agg(count("v") as "n"), "SELECT COUNT(v) AS n FROM kv", "kv" -> kv)
    Oracle.assertEquivalent(kv, "SELECT k, v FROM kv", "kv" -> kv)
  }

  test("an empty table loads") {
    val empty = kv.where(lit(false))
    Oracle.assertEquivalent(empty.agg(count(lit(1)) as "n"), "SELECT COUNT(*) AS n FROM e", "e" -> empty)
  }

  test("two tables load in one call") {
    val a = Seq((1, "p"), (2, "q"), (3, "r")).toDF("id", "x")
    val b = Seq((2, 20L), (3, 30L), (4, 40L)).toDF("id", "y")
    Oracle.assertEquivalent(a.join(b, "id"),
      "SELECT a.id, x, y FROM a JOIN b ON a.id = b.id", "a" -> a, "b" -> b)
  }

  test("a wrong Spark result is rejected") {
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(kv.where(col("k") =!= "c"), "SELECT k, v FROM kv", "kv" -> kv)
    }
    assert(e.getMessage.contains("result mismatch"), e.getMessage)
  }

  test("a mis-aliased column is rejected") {
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(kv.select(col("k") as "key"), "SELECT k FROM kv", "kv" -> kv)
    }
    assert(e.getMessage.contains("column mismatch"), e.getMessage)
  }

  test("rows that tie under a joined sort key compare as multisets in any order") {
    // Joined with no separator the first pair ties, joined with \u0001 the second.
    val rows = Seq(("1", "23"), ("12", "3"), ("a\u0001", "b"), ("a", "\u0001b"))
    def sqlLit(s: String) = s.split("\u0001", -1).map(p => s"'$p'").mkString(" || chr(1) || ")
    for (order <- Seq(rows, rows.reverse)) {
      val values = order.reverse.map { case (a, b) => s"(${sqlLit(a)}, ${sqlLit(b)})" }.mkString(", ")
      Oracle.assertEquivalent(order.toDF("a", "b"), s"SELECT a, b FROM (VALUES $values) AS v(a, b)")
    }
  }

  test("five tables of different schemas load under their own names") {
    val a = Seq((1, "p"), (2, "q"), (3, "r"), (4, "s")).toDF("id", "x")
    val b = Seq((1, 10L), (2, 20L), (3, 30L)).toDF("id", "y")
    val c = Seq((1, 0.5, "u"), (2, 1.5, "v"), (3, 2.5, "w"), (4, 3.5, "z"), (5, 4.5, "t")).toDF("id", "z", "tag")
    val d = Seq((2, true), (3, false)).toDF("id", "flag")
    val e = Seq(("m", 3, 7), ("n", 2, 8), ("o", 6, 9), ("l", 9, 1), ("k", 1, 2), ("j", 3, 4)).toDF("name", "id", "q")
    val joined = a.join(b, "id").join(c, "id").join(d, "id").join(e, "id")
      .select("id", "x", "y", "z", "tag", "flag", "name", "q")
    Oracle.assertEquivalent(joined,
      """SELECT a.id, x, y, CAST(z AS DOUBLE) AS z, tag, flag, name, q
        |FROM a JOIN b ON a.id = b.id JOIN c ON a.id = c.id
        |JOIN d ON a.id = d.id JOIN e ON a.id = e.id""".stripMargin,
      "a" -> a, "b" -> b, "c" -> c, "d" -> d, "e" -> e)
  }

  test("a failing Spark job surfaces its own SparkException, not an ExecutionException") {
    val boom = udf((i: Long) => { if (i >= 0) throw new IllegalStateException("boom"); i })
    val failing = spark.range(3).select(boom(col("id")) as "k")
    intercept[SparkException] {
      Oracle.assertEquivalent(failing, "SELECT k FROM kv", "kv" -> kv)
    }
    intercept[SparkException] {
      Oracle.assertEquivalent(kv.select("k"), "SELECT k FROM kv", "kv" -> failing)
    }
  }

  test("no Spark job the call starts outlives it when DuckDB rejects the SQL") {
    val sc = spark.sparkContext
    val group = "oracle-spec-join"
    val started, ended = new ConcurrentLinkedQueue[Int]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == group) started.add(e.jobId)
      override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.add(e.jobId)
    }
    val nap = udf((i: Long) => { Thread.sleep(300); i })
    val slow = spark.range(0, 2, 1, 2).select(nap(col("id")) as "id")
    val fast = spark.range(2).toDF("id")
    sc.addSparkListener(listener)
    sc.setJobGroup(group, "jobs of rejected oracle calls")
    try {
      // A query DuckDB cannot parse, while the query under test runs; then
      // a table name it cannot parse, while that table's collect runs.
      intercept[SQLException](Oracle.assertEquivalent(slow, "SELEC id FROM t", "t" -> fast))
      intercept[SQLException](Oracle.assertEquivalent(slow, "SELECT id FROM t", "select" -> slow))
      ListenerBusDrain(sc)
      val jobs = started.asScala.toSet
      assert(jobs.nonEmpty, "no job started in the group")
      assert(jobs.subsetOf(ended.asScala.toSet), s"started $jobs, ended ${ended.asScala.toSet}")
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  test("a cached table is collected once per cache entry, an uncached one on every call") {
    val cached = spark.range(0, 6, 1, 2).toDF("id").cache()
    val plain = spark.range(0, 4, 1, 2).toDF("id")
    val q = Seq(0L, 1L, 2L, 3L).toDF("id")
    try {
      cached.count()
      val (own, jc, ju) = (jobsOf(q.collect()), jobsOf(cached.collect()), jobsOf(plain.collect()))
      assert(jc > 0 && ju > 0, s"cached $jc, plain $ju")
      def call() = jobsOf(Oracle.assertEquivalent(q, "SELECT c.id FROM c JOIN p ON c.id = p.id",
        "c" -> cached, "p" -> plain))
      assert(call() == own + jc + ju)
      assert(call() == own + ju)
    } finally cached.unpersist(blocking = true)
  }

  test("a table cached again after unpersist() is compared by its new rows") {
    // Stands for a source whose rows change: a DataFrame cached again
    // after unpersist() recomputes its rows, and they now read v = 2.
    val version = new AtomicLong(1)
    val v = udf(() => version.get).asNondeterministic()
    val t = spark.range(0, 3, 1, 1).select(col("id"), v() as "v").cache()
    try {
      t.count()
      Oracle.assertEquivalent(t, "SELECT id, v FROM t", "t" -> t)
      version.set(2)
      t.unpersist(blocking = true)
      t.cache().count()
      assert(t.collect().map(_.getLong(1)).toSet == Set(2L))
      Oracle.assertEquivalent(t, "SELECT id, v FROM t", "t" -> t)
    } finally t.unpersist(blocking = true)
  }

  test("a table first collected before cache() is collected on every call") {
    // Its plan was fixed at that first collect, so it never reads the cache.
    val version = new AtomicLong(1)
    val v = udf(() => version.get).asNondeterministic()
    val t = spark.range(0, 3, 1, 1).select(col("id"), v() as "v")
    try {
      t.collect()
      t.cache().count()
      Oracle.assertEquivalent(t, "SELECT id, v FROM t", "t" -> t)
      version.set(2)
      Oracle.assertEquivalent(t, "SELECT id, v FROM t", "t" -> t)
    } finally t.unpersist(blocking = true)
  }

  test("a wrong Spark result over a reused cached table is rejected") {
    val t = Seq(("a", Some("x")), ("b", None), ("c", None)).toDF("k", "v").cache()
    val wrong = t.where(col("k") =!= "c")
    try {
      t.count()
      Oracle.assertEquivalent(t, "SELECT k, v FROM t", "t" -> t)
      val own = jobsOf(wrong.collect())
      var e: IllegalArgumentException = null
      val jobs = jobsOf { e = intercept[IllegalArgumentException](Oracle.assertEquivalent(wrong, "SELECT k, v FROM t", "t" -> t)) }
      assert(jobs == own, "the table was collected again")
      assert(e.getMessage.contains("result mismatch"), e.getMessage)
    } finally t.unpersist(blocking = true)
  }

  test("a cached table whose collect threw is collected again on the next call") {
    val boom = udf((i: Long) => { if (i >= 0) throw new IllegalStateException("boom"); i })
    val failing = spark.range(3).select(boom(col("id")) as "k").cache()
    val q = kv.select("k")
    try {
      val own = jobsOf(q.collect())
      for (_ <- 1 to 2)
        assert(jobsOf(intercept[SparkException](Oracle.assertEquivalent(q, "SELECT k FROM t", "t" -> failing))) > own)
    } finally failing.unpersist(blocking = true)
  }
}
