package repro.opt

import repro.linalg.LinAlg

/** Gaussian-process regression (paper Eq 6): zero-mean prior, RBF kernel
  * with a per-dimension-normalized squared distance (so feature spaces of
  * different dimensionality — BO's 4 knobs vs GBO's 4+3 — are comparable),
  * constant observation noise. Targets are standardized internally so
  * runtime magnitudes don't leak into kernel hyperparameters.
  *
  * The model grows: [[add]] appends one observation, one row of the kernel
  * matrix and one row of its Cholesky factor, then re-solves α. [[fit]]
  * replaces the data and factors every row at once.
  */
final class GaussianProcess {

  private val lengthScale = 0.35
  private val signalVar = 1.0
  private val noiseVar = 1e-3

  private var xs: Array[Array[Double]] = Array.empty
  private var ys: Array[Double] = Array.empty
  /** Row i holds K(i)(0..i), the noise on the diagonal. */
  private var kRows: Array[Array[Double]] = Array.empty
  /** Row i holds L(i)(0..i). */
  private var chol: Array[Array[Double]] = Array.empty
  private var jitter = 0.0
  private var changedFrom = 0
  private var alpha: Array[Double] = Array.empty
  private var yMean = 0.0
  private var yStd = 1.0

  def kernel(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    signalVar * math.exp(-(s / a.length) / (2.0 * lengthScale * lengthScale))
  }

  def fit(x: Array[Array[Double]], y: Array[Double]): Unit = {
    require(x.length == y.length && x.nonEmpty)
    xs = x.clone()
    ys = y.clone()
    kRows = Array.tabulate(x.length)(kernelRow)
    chol = Array.tabulate(x.length)(i => new Array[Double](i + 1))
    factor(0)
  }

  /** Adds one observation. While no pivot has needed jitter this costs one
    * new factor row; after that, every add refactors from row 0.
    */
  def add(x: Array[Double], y: Double): Unit = {
    xs = xs :+ x
    ys = ys :+ y
    kRows = kRows :+ kernelRow(size - 1)
    chol = chol :+ new Array[Double](size)
    factor(if (jitter == 0.0) size - 1 else 0)
  }

  /** K(i)(0..i): the kernel against every earlier point, noise on the diagonal. */
  private def kernelRow(i: Int): Array[Double] =
    Array.tabulate(i + 1)(j => if (j < i) kernel(xs(i), xs(j)) else kernel(xs(i), xs(i)) + noiseVar)

  private def factor(from: Int): Unit = {
    jitter = LinAlg.choleskyFrom(kRows, chol, from)
    changedFrom = if (jitter == 0.0) from else 0
    yMean = ys.sum / ys.length
    yStd = math.max(1e-9, math.sqrt(ys.map(v => (v - yMean) * (v - yMean)).sum / ys.length))
    alpha = LinAlg.choleskySolve(chol, ys.map(v => (v - yMean) / yStd))
  }

  def size: Int = xs.length

  /** The first factor row the last [[fit]] or [[add]] wrote: `size - 1`
    * after an append, 0 after a full factorization.
    */
  private[opt] def factorChangedFrom: Int = changedFrom
  private[opt] def factorRow(i: Int): Array[Double] = chol(i)
  private[opt] def weights: Array[Double] = alpha
  private[opt] def targetMean: Double = yMean
  private[opt] def targetStd: Double = yStd

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
