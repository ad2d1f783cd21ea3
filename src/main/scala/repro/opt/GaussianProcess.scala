package repro.opt

import java.util.Arrays
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

  // Observation i's rows, in arrays that double when full: its features,
  // target, row L(i)(0..i) of the kernel matrix's Cholesky factor, k(x_i, ·)
  // over the candidates, and entry i of every candidate's forward solve
  // L v = k*. BO's 30 probes fit in the first 32.
  private val initialCapacity = 32
  private var n = 0
  private var xs = new Array[Array[Double]](initialCapacity)
  private var ys = new Array[Double](initialCapacity)
  private var chol = new Array[Array[Double]](initialCapacity)
  private var kStar = new Array[Array[Double]](initialCapacity)
  private var v = new Array[Array[Double]](initialCapacity)
  private var alpha: Array[Double] = Array.empty
  private var yMean = 0.0
  private var yStd = 1.0

  /** Σ v², accumulated in row order as `LinAlg.dot(v, v)` sums it. */
  private val vv = new Array[Double](m)
  private val prior = {
    val p = new Array[Double](m)
    var c = 0
    while (c < m) { p(c) = kernel(candidates(c), candidates(c)); c += 1 }
    p
  }
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
    if (n == ys.length) grow()
    val i = n
    n += 1
    xs(i) = x
    ys(i) = y
    chol(i) = new Array[Double](i + 1)
    LinAlg.choleskyRow(kernelRow(i), chol, i)
    standardize()
    val ki = new Array[Double](m)
    var c = 0
    while (c < m) { ki(c) = kernel(x, candidates(c)); c += 1 }
    kStar(i) = ki
    v(i) = new Array[Double](m)
    solveRow(i)
  }

  /** Re-derives the targets' mean and deviation, and α = K⁻¹ z for the
    * standardized targets z.
    */
  private def standardize(): Unit = {
    // Both sums start from ys(0), not from 0.0, as Scala's `sum` adds.
    var s = ys(0)
    var k = 1
    while (k < n) { s += ys(k); k += 1 }
    yMean = s / n
    var d = ys(0) - yMean
    var ss = d * d
    k = 1
    while (k < n) { d = ys(k) - yMean; ss += d * d; k += 1 }
    yStd = math.max(1e-9, math.sqrt(ss / n))
    val z = new Array[Double](n)
    k = 0
    while (k < n) { z(k) = (ys(k) - yMean) / yStd; k += 1 }
    alpha = LinAlg.choleskySolve(chol, z)
  }

  private def grow(): Unit = {
    val cap = 2 * ys.length
    xs = Arrays.copyOf(xs, cap)
    ys = Arrays.copyOf(ys, cap)
    chol = Arrays.copyOf(chol, cap)
    kStar = Arrays.copyOf(kStar, cap)
    v = Arrays.copyOf(v, cap)
  }

  /** Adds candidate `i`, observed at `y`, and marks it [[observed]]. */
  def addCandidate(i: Int, y: Double): Unit = {
    observed(i) = true
    add(candidates(i), y)
  }

  /** K(i)(0..i): the kernel against every earlier point, noise on the diagonal. */
  private def kernelRow(i: Int): Array[Double] = {
    val row = new Array[Double](i + 1)
    var j = 0
    while (j < i) { row(j) = kernel(xs(i), xs(j)); j += 1 }
    row(i) = kernel(xs(i), xs(i)) + noiseVar
    row
  }

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

  def size: Int = n

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
    val kv = new Array[Double](n)
    var i = 0
    while (i < n) { kv(i) = kernel(xs(i), x); i += 1 }
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
