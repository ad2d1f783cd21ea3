package repro.opt

import repro.linalg.LinAlg

/** Gaussian-process regression (paper Eq 6): zero-mean prior, RBF kernel
  * with a per-dimension-normalized squared distance (so feature spaces of
  * different dimensionality — BO's 4 knobs vs GBO's 4+3 — are comparable),
  * constant observation noise. Targets are standardized internally so
  * runtime magnitudes don't leak into kernel hyperparameters.
  *
  * The model only grows: [[add]] appends one observation and one row of
  * the kernel matrix's Cholesky factor, then re-solves α. [[fit]] adds rows
  * one at a time to a model that holds none yet.
  *
  * It also keeps the posterior over a fixed set of `candidates` (BO's grid):
  * each added observation appends one entry to every candidate's
  * cross-covariance k* and forward-solve vector v, so [[posterior]] over m
  * candidates with n observations costs O(m·n). Its mean and standard
  * deviation at every candidate equal [[predict]]'s bit for bit.
  */
final class GaussianProcess(candidates: Array[Array[Double]] = Array.empty) {

  private val lengthScale = 0.35
  private val signalVar = 1.0
  private val noiseVar = 1e-3
  private val m = candidates.length

  private var xs: Array[Array[Double]] = Array.empty
  private var ys: Array[Double] = Array.empty
  /** Row i holds L(i)(0..i). */
  private var chol: Array[Array[Double]] = Array.empty
  private var alpha: Array[Double] = Array.empty
  private var yMean = 0.0
  private var yStd = 1.0

  /** Row i: k(x_i, ·) over the candidates. */
  private var kStar: Array[Array[Double]] = Array.empty
  /** Row i: entry i of every candidate's forward solve L v = k*. */
  private var v: Array[Array[Double]] = Array.empty
  /** Σ v², accumulated in row order as `LinAlg.dot(v, v)` sums it. */
  private val vv = new Array[Double](m)
  private val prior = candidates.map(c => kernel(c, c))
  /** Which candidates [[addCandidate]] has added. */
  val observed = new Array[Boolean](m)
  /** The posterior mean and standard deviation per candidate, as the last
    * [[posterior]] call left them.
    */
  val mean = new Array[Double](m)
  val sd = new Array[Double](m)

  def kernel(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    signalVar * math.exp(-(s / a.length) / (2.0 * lengthScale * lengthScale))
  }

  /** Adds the rows of `x` and `y` to a model that holds no data yet. */
  def fit(x: Array[Array[Double]], y: Array[Double]): Unit = {
    require(size == 0, "GaussianProcess.fit: the model already holds data")
    require(x.length == y.length && x.nonEmpty)
    x.indices.foreach(i => add(x(i), y(i)))
  }

  /** Adds one observation: one new factor row, and one k* and v entry per
    * candidate. The 1e-3 noise on the diagonal of a PSD kernel matrix keeps
    * every pivot at least 1e-3 above zero.
    */
  def add(x: Array[Double], y: Double): Unit = {
    xs = xs :+ x
    ys = ys :+ y
    chol = chol :+ new Array[Double](size)
    LinAlg.choleskyRow(kernelRow(size - 1), chol, size - 1)
    yMean = ys.sum / ys.length
    yStd = math.max(1e-9, math.sqrt(ys.map(v => (v - yMean) * (v - yMean)).sum / ys.length))
    alpha = LinAlg.choleskySolve(chol, ys.map(v => (v - yMean) / yStd))
    kStar = kStar :+ candidates.map(kernel(x, _))
    v = v :+ new Array[Double](m)
    solveRow(size - 1)
  }

  /** Adds candidate `i`, observed at `y`, and marks it [[observed]]. */
  def addCandidate(i: Int, y: Double): Unit = {
    observed(i) = true
    add(candidates(i), y)
  }

  /** K(i)(0..i): the kernel against every earlier point, noise on the diagonal. */
  private def kernelRow(i: Int): Array[Double] =
    Array.tabulate(i + 1)(j => if (j < i) kernel(xs(i), xs(j)) else kernel(xs(i), xs(i)) + noiseVar)

  /** Row r of every candidate's v, subtracting in `forwardSolve`'s order. */
  private def solveRow(r: Int): Unit = {
    val l = chol(r)
    val vr = v(r)
    System.arraycopy(kStar(r), 0, vr, 0, m)
    var j = 0
    while (j < r) {
      val lj = l(j)
      val vj = v(j)
      var c = 0
      while (c < m) { vr(c) -= lj * vj(c); c += 1 }
      j += 1
    }
    val d = l(r)
    var c = 0
    while (c < m) { vr(c) /= d; vv(c) += vr(c) * vr(c); c += 1 }
  }

  def size: Int = xs.length

  /** Fills [[mean]] and [[sd]] at every candidate (Eq 6). */
  def posterior(): Unit = {
    java.util.Arrays.fill(mean, 0.0)
    var i = 0
    while (i < size) {
      val a = alpha(i)
      val ki = kStar(i)
      var c = 0
      while (c < m) { mean(c) += ki(c) * a; c += 1 }
      i += 1
    }
    var c = 0
    while (c < m) {
      mean(c) = mean(c) * yStd + yMean
      sd(c) = math.sqrt(math.max(0.0, prior(c) - vv(c))) * yStd
      c += 1
    }
  }

  /** Posterior mean and standard deviation at a point (Eq 6). */
  def predict(x: Array[Double]): (Double, Double) = {
    val kv = xs.map(kernel(_, x))
    val mu = LinAlg.dot(kv, alpha)
    val v = LinAlg.forwardSolve(chol, kv)
    val varx = math.max(0.0, kernel(x, x) - LinAlg.dot(v, v))
    (mu * yStd + yMean, math.sqrt(varx) * yStd)
  }

  /** Coefficient of determination on a held-out set (paper Fig 25). */
  def r2(x: Array[Array[Double]], y: Array[Double]): Double = {
    val preds = x.map(p => predict(p)._1)
    val mean = y.sum / y.length
    val ssTot = y.map(v => (v - mean) * (v - mean)).sum
    val ssRes = y.indices.map(i => math.pow(y(i) - preds(i), 2)).sum
    if (ssTot <= 0) 0.0 else 1.0 - ssRes / ssTot
  }
}
