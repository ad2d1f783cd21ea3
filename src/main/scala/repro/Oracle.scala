package repro

import java.sql.DriverManager
import java.util.concurrent.{Callable, ExecutionException, Executors, Future, TimeUnit}
import org.apache.spark.sql.{DataFrame, Row}
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
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

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
      val tableRows = tables.map { case (_, df) => collect(df) }
      Class.forName("org.duckdb.DuckDBDriver")
      val conn = DriverManager.getConnection("jdbc:duckdb:")
      try {
        for (((name, df), rows) <- tables.zip(tableRows)) {
          val cols = df.columns
          conn.createStatement.execute(
            s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
          )
          val app = conn.unwrap(classOf[DuckDBConnection]).createAppender("main", name)
          try await(rows).foreach { r =>
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
