package repro.workloads

import repro.{Oracle, SparkSpec, SynthData}

class SvmSpec extends SparkSpec {

  private lazy val data = SynthData.labeledPoints(spark, n = 4000).cache()

  test("misclassification count at a fixed separator matches the DuckDB oracle") {
    val w = Array(1.0, -2.0, 0.5)
    Oracle.assertEquivalent(SvmW.misclassified(data, w), SvmW.oracleErrSql(w),
      "pts" -> data)
  }

  private def errs(w: Array[Double]): Long = SvmW.misclassified(data, w).collect()(0).getLong(0)

  test("the true separator classifies the generated data perfectly") {
    assert(errs(Array(1.0, -2.0, 0.5)) == 0)
  }

  test("subgradient descent learns a high-accuracy separator") {
    val w = SvmW.train(data, epochs = 12)
    assert(errs(w) < 0.05 * data.count(), s"w=${w.toSeq}")
  }

  test("the gradient vanishes (up to regularization) at a scaled true separator") {
    val g = SvmW.gradient(data, Array(10.0, -20.0, 5.0), lambda = 0.0)
    assert(g.forall(math.abs(_) < 1e-9), s"g=${g.toSeq}")
  }

  test("labels are balanced enough to make accuracy meaningful") {
    val pos = data.where("label = 1.0").count().toDouble / data.count()
    assert(pos > 0.3 && pos < 0.7)
  }
}
