package repro.opt

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.LinAlg

class LinAlgSpec extends AnyFunSuite {

  /** L·Lᵀ. */
  private def matMul(l: Array[Array[Double]]): Array[Array[Double]] = {
    val n = l.length
    Array.tabulate(n, n)((i, j) =>
      (0 until n).map(k => l(i)(k) * l(j)(k)).sum)
  }

  test("cholesky reconstructs a hand-built SPD matrix") {
    val a = Array(
      Array(4.0, 2.0, 0.6),
      Array(2.0, 5.0, 1.0),
      Array(0.6, 1.0, 3.0))
    val l = LinAlg.cholesky(a)
    val r = matMul(l)
    for (i <- a.indices; j <- a.indices)
      assert(math.abs(r(i)(j) - a(i)(j)) < 1e-9)
    // lower-triangular
    assert(l(0)(1) == 0.0 && l(0)(2) == 0.0 && l(1)(2) == 0.0)
  }

  test("choleskySolve solves A x = b") {
    val a = Array(
      Array(4.0, 2.0, 0.6),
      Array(2.0, 5.0, 1.0),
      Array(0.6, 1.0, 3.0))
    val b = Array(1.0, -2.0, 0.5)
    val l = LinAlg.cholesky(a)
    val x = LinAlg.choleskySolve(l, b)
    val ax = a.map(row => LinAlg.dot(row, x))
    for (i <- b.indices) assert(math.abs(ax(i) - b(i)) < 1e-9)
  }

  test("cholesky of random SPD matrices round-trips (property sweep)") {
    val rnd = new scala.util.Random(42)
    for (trial <- 0 until 50) {
      val n = 2 + rnd.nextInt(5)
      val m = Array.fill(n, n)(rnd.nextDouble() * 2 - 1)
      // A = M Mᵀ + n·I is SPD.
      val a = Array.tabulate(n, n)((i, j) =>
        (0 until n).map(k => m(i)(k) * m(j)(k)).sum + (if (i == j) n.toDouble else 0.0))
      val l = LinAlg.cholesky(a)
      val r = matMul(l)
      for (i <- 0 until n; j <- 0 until n)
        assert(math.abs(r(i)(j) - a(i)(j)) < 1e-6, s"trial $trial")
    }
  }

  test("forward/backward substitution invert the triangular factors") {
    val l = Array(
      Array(2.0, 0.0),
      Array(1.0, 3.0))
    val y = LinAlg.forwardSolve(l, Array(4.0, 11.0))
    assert(math.abs(y(0) - 2.0) < 1e-12 && math.abs(y(1) - 3.0) < 1e-12)
    val x = LinAlg.backwardSolve(l, y)
    // Lᵀ x = y  →  [2 1; 0 3] x = (2,3) → x = (0.5, 1)
    assert(math.abs(x(0) - 0.5) < 1e-12 && math.abs(x(1) - 1.0) < 1e-12)
  }

  test("a singular matrix is rejected, not factored") {
    val a = Array(
      Array(1.0, 1.0),
      Array(1.0, 1.0))
    assertThrows[IllegalArgumentException](LinAlg.cholesky(a))
  }

  /** The factorization as one pass over the whole matrix: the reference the
    * row-appending one must equal bit for bit.
    */
  private def allAtOnce(a: Array[Array[Double]]): Array[Array[Double]] = {
    val n = a.length
    val l = Array.ofDim[Double](n, n)
    for (i <- 0 until n; j <- 0 to i) {
      var s = 0.0
      var k = 0
      while (k < j) { s += l(i)(k) * l(j)(k); k += 1 }
      if (i == j) l(i)(i) = math.sqrt(a(i)(i) - s)
      else l(i)(j) = (a(i)(j) - s) / l(j)(j)
    }
    l
  }

  test("appending rows one at a time gives the all-at-once factor bit for bit") {
    val rnd = new scala.util.Random(3)
    val gp = new GaussianProcess()
    for (trial <- 0 until 20) {
      val n = 2 + rnd.nextInt(29)
      val x = Array.fill(n)(Array.fill(4)(rnd.nextDouble()))
      // A GP kernel matrix with its noise on the diagonal, as BO factors it.
      val a = Array.tabulate(n, n)((i, j) => gp.kernel(x(i), x(j)) + (if (i == j) 1e-3 else 0.0))
      val want = allAtOnce(a).map(_.toSeq).toSeq
      assert(LinAlg.cholesky(a).map(_.toSeq).toSeq == want, s"trial $trial")
      // Lower-triangular rows only, grown as GaussianProcess.add grows them.
      val rows = Array.tabulate(n)(i => a(i).take(i + 1))
      val l = Array.tabulate(n)(i => new Array[Double](i + 1))
      for (i <- 0 until n) LinAlg.choleskyRow(rows(i), l, i)
      assert(l.map(_.toSeq).toSeq == want.indices.map(i => want(i).take(i + 1)), s"trial $trial")
    }
  }

  test("dot product") {
    assert(LinAlg.dot(Array(1.0, 2, 3), Array(4.0, 5, 6)) == 32.0)
  }
}
