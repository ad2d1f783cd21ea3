package repro.opt

import org.scalatest.funsuite.AnyFunSuite

/** Gaussian-process surrogate (paper Eq 6). */
class GpSpec extends AnyFunSuite {

  private def grid1d(n: Int): Array[Array[Double]] =
    Array.tabulate(n)(i => Array(i.toDouble / (n - 1)))

  test("posterior mean interpolates the training targets") {
    val x = grid1d(8)
    val y = x.map(p => math.sin(p(0) * 5))
    val gp = new GaussianProcess()
    gp.fit(x, y)
    for (i <- x.indices)
      assert(math.abs(gp.predict(x(i))._1 - y(i)) < 0.12)
  }

  test("posterior mean generalizes between training points") {
    val x = grid1d(11)
    val y = x.map(p => math.sin(p(0) * 5))
    val gp = new GaussianProcess()
    gp.fit(x, y)
    val mid = Array(0.35)
    assert(math.abs(gp.predict(mid)._1 - math.sin(0.35 * 5)) < 0.15)
  }

  test("uncertainty is low at training points and higher far away") {
    val x = Array(Array(0.0), Array(0.1), Array(0.2))
    val y = Array(1.0, 2.0, 3.0)
    val gp = new GaussianProcess()
    gp.fit(x, y)
    val sAt = gp.predict(Array(0.1))._2
    val sFar = gp.predict(Array(0.9))._2
    assert(sFar > sAt * 3)
  }

  test("predictions are invariant to target scaling offsets (standardization)") {
    val x = grid1d(6)
    val ySmall = x.map(p => p(0))
    val yBig = x.map(p => 1e6 + 1e4 * p(0))
    val g1 = new GaussianProcess(); g1.fit(x, ySmall)
    val g2 = new GaussianProcess(); g2.fit(x, yBig)
    val m1 = g1.predict(Array(0.5))._1
    val m2 = g2.predict(Array(0.5))._1
    assert(math.abs(m1 - 0.5) < 0.05)
    assert(math.abs(m2 - (1e6 + 5e3)) < 500)
  }

  test("r2 on training data is near 1 for a smooth target") {
    val x = grid1d(10)
    val y = x.map(p => p(0) * p(0))
    val gp = new GaussianProcess()
    gp.fit(x, y)
    assert(gp.r2(x, y) > 0.95)
  }

  test("r2 on an unrelated validation set is poor (sanity of the metric)") {
    val x = grid1d(10)
    val y = x.map(p => p(0))
    val gp = new GaussianProcess()
    gp.fit(x, y)
    val xv = grid1d(10)
    val yv = xv.map(p => math.cos(p(0) * 40) * 5)
    assert(gp.r2(xv, yv) < 0.5)
  }

  test("duplicate training points do not break the factorization") {
    val x = Array(Array(0.2), Array(0.2), Array(0.8))
    val y = Array(1.0, 1.1, 2.0)
    val gp = new GaussianProcess()
    // The 1e-3 observation noise alone keeps the second pivot near 0.002,
    // above zero.
    gp.fit(x, y)
    assert(!gp.predict(Array(0.5))._1.isNaN)
  }

  test("adding observations one at a time gives the model fit to all of them at once") {
    val rnd = new scala.util.Random(7)
    val x = Array.fill(12)(Array.fill(3)(rnd.nextDouble()))
    val y = x.map(p => p.sum + rnd.nextGaussian())
    val grown = new GaussianProcess()
    for (i <- x.indices) {
      grown.add(x(i), y(i))
      val fitted = new GaussianProcess()
      fitted.fit(x.take(i + 1), y.take(i + 1))
      for (_ <- 0 until 20) {
        val q = Array.fill(3)(rnd.nextDouble())
        assert(grown.predict(q) == fitted.predict(q), s"after ${i + 1} observations")
      }
    }
  }

  test("the posterior over the candidates equals predict after adds, and after more adds") {
    val rnd = new scala.util.Random(11)
    val cands = Array.fill(40)(Array.fill(3)(rnd.nextDouble()))
    val gp = new GaussianProcess(cands)
    def check(state: String): Unit = {
      gp.posterior()
      for (c <- cands.indices) assert(gp.predict(cands(c)) == ((gp.mean(c), gp.sd(c))), s"$state, candidate $c")
    }
    Seq(3, 17, 25, 8).foreach(gp.addCandidate(_, rnd.nextGaussian()))
    gp.add(Array.fill(3)(rnd.nextDouble()), rnd.nextGaussian())
    assert(gp.observed.count(identity) == 4 && Seq(3, 17, 25, 8).forall(gp.observed(_)))
    check("after 5 adds")
    val x = Array.fill(6)(Array.fill(3)(rnd.nextDouble()))
    assertThrows[IllegalArgumentException](gp.fit(x, x.map(_.sum)))
    Seq(0, 39).foreach(gp.addCandidate(_, rnd.nextGaussian()))
    assert(gp.size == 7 && gp.observed.count(identity) == 6 && gp.observed(0) && gp.observed(39))
    check("after 2 more adds")
  }

  test("the posterior equals predict after every add, past the storage's first doublings") {
    val rnd = new scala.util.Random(17)
    val cands = Array.fill(30)(Array.fill(2)(rnd.nextDouble()))
    val gp = new GaussianProcess(cands)
    for (k <- 1 to 70) {
      if (k % 3 == 0 && k / 3 < cands.length) gp.addCandidate(k / 3, rnd.nextGaussian())
      else gp.add(Array.fill(2)(rnd.nextDouble()), rnd.nextGaussian())
      assert(gp.size == k)
      gp.posterior()
      for (c <- cands.indices) assert(gp.predict(cands(c)) == ((gp.mean(c), gp.sd(c))), s"after $k adds, candidate $c")
    }
  }
}
