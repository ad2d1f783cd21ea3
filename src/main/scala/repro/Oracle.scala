package repro

import java.sql.DriverManager
import java.util.{Collections, WeakHashMap}
import java.util.concurrent.{Callable, ExecutionException, Executors, Future, TimeUnit}
import org.apache.spark.sql.{classic, DataFrame, Row}
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.duckdb.DuckDBConnection

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct". Each call
  * bulk-loads the tables with DuckDB's Appender into a fresh in-memory
  * database as VARCHAR columns (each value's ``toString``, null as NULL).
  *
  * The call's Spark jobs run concurrently: collecting ``sparkDf`` and each
  * table starts at once, each on its own thread of a pool the call owns,
  * while the calling thread loads each table as its rows arrive. Every job
  * has ended when the call returns or throws, and a job's exception is
  * rethrown as is.
  *
  * A table whose whole plan reads a CacheManager entry (``df.cache()``
  * before ``df``'s first action) is collected once per entry: a later call
  * with the same ``DataFrame`` reuses its rows and starts no job for it,
  * until the entry goes (``unpersist()``). Every other table, and
  * ``sparkDf``, is collected on every call. The reused rows are those the
  * first collect read; if Spark later recomputes a lost cache partition
  * from a nondeterministic plan, the cache can hold other rows than these.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** Rows collected from tables that read a live cache entry. */
  private val cachedRows = Collections.synchronizedMap(new WeakHashMap[DataFrame, Array[Row]])

  /** Whether `df`'s whole plan reads a CacheManager entry that is still the
    * entry for that plan. A `DataFrame` fixes its plan at its first action,
    * and a dropped entry never comes back, so while this holds `df` reads
    * the entry it read before. The entries compare by `eq`: `CachedRDDBuilder`
    * is a case class, and the entry of an `unpersist()` then `cache()` equals
    * the one it replaced, which `df` still reads, recomputing its rows.
    */
  private def readsLiveCache(df: DataFrame): Boolean = df.queryExecution.withCachedData match {
    case r: InMemoryRelation =>
      df.sparkSession.asInstanceOf[classic.SparkSession].sharedState.cacheManager
        .lookupCachedData(df.asInstanceOf[classic.Dataset[_]])
        .exists(_.cachedRepresentation.cacheBuilder eq r.cacheBuilder)
    case _ => false
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sorted(Ordering.Implicits.seqOrdering[Seq, String])
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    // Made by the calling thread, so the pool's threads inherit its Spark
    // local properties (job group, scheduler pool).
    val pool = Executors.newFixedThreadPool(tables.size + 1)
    def collect(df: DataFrame): Future[Array[Row]] =
      pool.submit(new Callable[Array[Row]] { def call(): Array[Row] = df.collect() })
    def await(rows: Future[Array[Row]]): Array[Row] =
      try rows.get() catch { case e: ExecutionException => throw e.getCause }
    try {
      val sparkRows = collect(sparkDf)
      // Each table's rows: reused if read from its live cache entry before,
      // else collected now and, if cached, stored once they arrive.
      val tableRows = tables.map { case (_, df) =>
        val cached = readsLiveCache(df)
        val reused = if (cached) cachedRows.get(df) else null
        if (reused != null) () => reused
        else {
          val job = collect(df)
          () => {
            val rows = await(job)
            if (cached) cachedRows.put(df, rows)
            rows
          }
        }
      }
      Class.forName("org.duckdb.DuckDBDriver")
      val conn = DriverManager.getConnection("jdbc:duckdb:")
      try {
        for (((name, df), rows) <- tables.zip(tableRows)) {
          val cols = df.columns
          conn.createStatement.execute(
            s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
          )
          val app = conn.unwrap(classOf[DuckDBConnection]).createAppender("main", name)
          try rows().foreach { r =>
            app.beginRow()
            cols.indices.foreach(i => app.append(Option(r.get(i)).map(_.toString).orNull))
            app.endRow()
          } finally app.close()
        }
        val rs   = conn.createStatement.executeQuery(sql)
        val meta = rs.getMetaData
        val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
        val dRows = Iterator
          .continually(rs)
          .takeWhile(_.next())
          .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
          .toSeq
        val sCols = sparkDf.columns.toSeq
        require(
          dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
          s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
        )
        val got = canon(await(sparkRows).toSeq, sCols)
        val exp = canon(dRows, dCols)
        require(got == exp,
          s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
          s"  first spark-only: ${got.diff(exp).take(3)}\n" +
          s"  first duck-only:  ${exp.diff(got).take(3)}"
        )
      } finally conn.close()
    } finally {
      // Join every job, on failure too: a job left running would leak its
      // tasks into the next job a SparkListener (MetricsCollector) profiles.
      pool.shutdown()
      pool.awaitTermination(Long.MaxValue, TimeUnit.NANOSECONDS)
    }
  }
}
