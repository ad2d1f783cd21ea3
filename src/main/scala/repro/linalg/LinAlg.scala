package repro.linalg

/** Minimal dense linear algebra for the Gaussian-process surrogate: the
  * sample counts in this problem are tens, so an O(n^3) Cholesky on plain
  * arrays is simpler and faster than pulling in a library.
  */
object LinAlg {

  /** Cholesky factor L (lower-triangular, row-major) of a symmetric
    * positive-definite matrix A (n×n, row-major), appended row by row.
    */
  def cholesky(a: Array[Array[Double]]): Array[Array[Double]] = {
    val l = Array.ofDim[Double](a.length, a.length)
    var i = 0
    while (i < a.length) { choleskyRow(a(i), l, i); i += 1 }
    l
  }

  /** Fills row i of L from row i of A and rows 0 until i of L, which
    * already hold the factor of A's leading block. Only entries on or below
    * the diagonal are read or written, so rows may hold just those. Fails
    * when the pivot is not positive, i.e. A is not positive-definite.
    */
  def choleskyRow(ai: Array[Double], l: Array[Array[Double]], i: Int): Unit = {
    val li = l(i)
    var j = 0
    while (j <= i) {
      val lj = l(j)
      var s = 0.0
      var k = 0
      while (k < j) { s += li(k) * lj(k); k += 1 }
      if (j < i) li(j) = (ai(j) - s) / lj(j)
      else {
        val d = ai(i) - s
        require(d > 0, s"cholesky: pivot $d of row $i is not positive")
        li(i) = math.sqrt(d)
      }
      j += 1
    }
  }

  /** Solve L y = b (forward substitution). */
  def forwardSolve(l: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = b.length
    val y = new Array[Double](n)
    var i = 0
    while (i < n) {
      var s = b(i)
      var j = 0
      while (j < i) { s -= l(i)(j) * y(j); j += 1 }
      y(i) = s / l(i)(i)
      i += 1
    }
    y
  }

  /** Solve L^T x = y (backward substitution). */
  def backwardSolve(l: Array[Array[Double]], y: Array[Double]): Array[Double] = {
    val n = y.length
    val x = new Array[Double](n)
    var i = n - 1
    while (i >= 0) {
      var s = y(i)
      var j = i + 1
      while (j < n) { s -= l(j)(i) * x(j); j += 1 }
      x(i) = s / l(i)(i)
      i -= 1
    }
    x
  }

  /** Solve A x = b via the Cholesky factor of A. */
  def choleskySolve(l: Array[Array[Double]], b: Array[Double]): Array[Double] =
    backwardSolve(l, forwardSolve(l, b))

  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }
}
