package repro.opt

import repro.linalg.LinAlg

/** Gaussian-process regression (paper Eq 6): zero-mean prior, RBF kernel
  * with a per-dimension-normalized squared distance (so feature spaces of
  * different dimensionality — BO's 4 knobs vs GBO's 4+3 — are comparable),
  * constant observation noise. Targets are standardized internally so
  * runtime magnitudes don't leak into kernel hyperparameters.
  */
final class GaussianProcess {

  private val lengthScale = 0.35
  private val signalVar = 1.0
  private val noiseVar = 1e-3

  private var xs: Array[Array[Double]] = Array.empty
  private var chol: Array[Array[Double]] = Array.empty
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
    xs = x
    yMean = y.sum / y.length
    yStd = math.max(1e-9, math.sqrt(y.map(v => (v - yMean) * (v - yMean)).sum / y.length))
    val yn = y.map(v => (v - yMean) / yStd)
    val n = x.length
    val k = Array.tabulate(n, n) { (i, j) =>
      kernel(x(i), x(j)) + (if (i == j) noiseVar else 0.0)
    }
    chol = LinAlg.cholesky(k)
    alpha = LinAlg.choleskySolve(chol, yn)
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
