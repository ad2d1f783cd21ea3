package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle itself: how it loads tables and when it rejects. */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val kv = Seq(("a", Some("x")), ("b", None), ("c", None)).toDF("k", "v")

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
}
