package repro.linalg

/** Minimal dense linear algebra for the Gaussian-process surrogate: the
  * sample counts in this problem are tens, so an O(n^3) Cholesky on plain
  * arrays is simpler and faster than pulling in a library.
  */
object LinAlg {

  /** Cholesky factor L (lower-triangular, row-major) of a symmetric
    * positive-definite matrix A (n×n, row-major). Jitters the diagonal if A
    * is borderline.
    */
  def cholesky(a: Array[Array[Double]]): Array[Array[Double]] = {
    val l = Array.ofDim[Double](a.length, a.length)
    choleskyFrom(a, l, 0)
    l
  }

  /** Extends a Cholesky factor one row at a time: fills rows `from` until
    * `a.length` of L, whose rows before `from` already hold the jitter-free
    * factor of A's leading block. Only entries on or below the diagonal of
    * A and L are read or written, so both may hold just those. If a pivot
    * is not positive, the diagonal is jittered (1e-10, then ×10) and the
    * whole factor is rebuilt from row 0. Returns the jitter used, 0 when
    * none was needed.
    */
  def choleskyFrom(a: Array[Array[Double]], l: Array[Array[Double]], from: Int): Double = {
    var jitter = 0.0
    var i = from
    while (i < a.length) {
      if (choleskyRow(a(i), l, i, jitter)) i += 1
      else {
        jitter = if (jitter == 0) 1e-10 else jitter * 10
        require(jitter < 1e-2, "cholesky: matrix far from PD")
        i = 0
      }
    }
    jitter
  }

  /** Row i of L from row i of A and rows 0 until i of L; false when the
    * pivot is not positive.
    */
  private def choleskyRow(ai: Array[Double], l: Array[Array[Double]], i: Int, jitter: Double): Boolean = {
    val li = l(i)
    var j = 0
    while (j <= i) {
      val lj = l(j)
      var s = 0.0
      var k = 0
      while (k < j) { s += li(k) * lj(k); k += 1 }
      if (j < i) li(j) = (ai(j) - s) / lj(j)
      else {
        val d = ai(i) + jitter - s
        if (d <= 0) return false
        li(i) = math.sqrt(d)
      }
      j += 1
    }
    true
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
