package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.workloads.TpchQueries.Tpch

class SynthDataSpec extends SparkSpec {

  /** Every generator, at sizes small enough to build twice per test. */
  private def generators: Seq[(String, () => DataFrame)] = Seq(
    "lineitem"      -> (() => SynthData.lineitem(spark, sf = 0.001)),
    "orders"        -> (() => SynthData.orders(spark, sf = 0.001)),
    "customer"      -> (() => SynthData.customer(spark, sf = 0.001)),
    "part"          -> (() => SynthData.part(spark, sf = 0.001)),
    "uniformKeys"   -> (() => SynthData.uniformKeys(spark, 5000, 100)),
    "textLines"     -> (() => SynthData.textLines(spark, 2000)),
    "edges"         -> (() => SynthData.edges(spark, 4000, 300)),
    "points"        -> (() => SynthData.points(spark, 3000, 3)),
    "labeledPoints" -> (() => SynthData.labeledPoints(spark, 3000)),
  )

  private case class Fingerprint(partitions: Int, rows: Long, checksum: Long)

  /** The checksum is order-free; it reduces each row hash mod a prime so the
    * sum cannot overflow under ANSI.
    */
  private def fingerprint(df: DataFrame): Fingerprint = {
    val row = df.agg(count(lit(1)),
      sum(pmod(xxhash64(df.columns.map(col).toIndexedSeq: _*), lit(1000000007L)))).head()
    Fingerprint(df.rdd.getNumPartitions, row.getLong(0), row.getLong(1))
  }

  /** Each generator built with `spark.range` split into `parts` partitions. */
  private def fingerprints(parts: Int): Map[String, Fingerprint] = {
    val key = "spark.sql.leafNodeDefaultParallelism"
    val saved = spark.conf.getOption(key)
    spark.conf.set(key, parts.toLong)
    try generators.map { case (name, gen) => name -> fingerprint(gen()) }.toMap
    finally saved.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  test("every generator gives the same rows at 1 and at 4 partitions") {
    val one = fingerprints(1)
    val four = fingerprints(4)
    for ((name, _) <- generators) withClue(name) {
      assert(one(name).partitions == 1)
      assert(four(name).partitions == 4)
      assert(one(name).rows > 0)
      assert(one(name).rows == four(name).rows)
      assert(one(name).checksum == four(name).checksum)
    }
  }

  test("Tpch passes its seed to every table; seed 0 gives the default tables") {
    val tables = (t: Tpch) => Seq(t.lineitem, t.orders, t.customer, t.part).map(fingerprint)
    val gen = generators.toMap
    val defaults = Seq("lineitem", "orders", "customer", "part").map(n => fingerprint(gen(n)()))
    assert(tables(Tpch(spark, sf = 0.001, seed = 0)) == defaults)
    val reseeded = tables(Tpch(spark, sf = 0.001, seed = 1))
    assert(reseeded.map(_.rows) == defaults.map(_.rows))
    for ((r, d) <- reseeded.zip(defaults)) assert(r.checksum != d.checksum)
  }
}
