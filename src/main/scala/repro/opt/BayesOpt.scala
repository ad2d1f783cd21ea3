package repro.opt

import repro.core.{QModel, Stats}
import repro.sim.MemoryConf

/** Bayesian Optimization (paper Sec 5.1) and its guided variant GBO
  * (Sec 5.2).
  *
  * BO: bootstrap the Gaussian process with 4 LHS samples, then repeatedly
  * probe the Expected-Improvement (Eq 7) maximizer over the discretized
  * candidate grid. CherryPick stopping rule: halt once the best expected
  * improvement drops below 10% of the incumbent and at least 6 adaptive
  * samples were taken; at most 26 adaptive samples are taken.
  *
  * GBO: identical loop, but the surrogate's inputs are augmented with the
  * white-box metrics q1..q3 of model Q (Eq 8) computed from a profiled
  * statistics vector — GP(x, q^x, y) instead of GP(x, y) (Eq 9).
  */
final class BayesOpt(space: ConfigSpace, guide: Option[Stats] = None, seed: Long = 42L) {

  private val initSamples = 4
  private val minAdaptive = 6
  private val maxAdaptive = 26
  private val eiThreshold = 0.10
  /** 1/√(2π), the largest value the computed φ takes. */
  private val invSqrt2Pi = 0.3989422804014327

  /** Feature vector: knob encoding, plus q1..q3 when guided. */
  def features(c: MemoryConf): Array[Double] = guide match {
    case None => space.encode(c)
    case Some(st) => space.encode(c) ++ QModel.derive(st, c).scaled
  }

  /** Expected Improvement for minimization (Eq 7, with τ the incumbent). */
  def expectedImprovement(mu: Double, sigma: Double, tau: Double): Double = {
    if (sigma <= 1e-12) return math.max(0.0, tau - mu)
    val z = (tau - mu) / sigma
    (tau - mu) * Phi(z) + sigma * phi(z)
  }

  private def phi(z: Double): Double = math.exp(-0.5 * z * z) / math.sqrt(2 * math.Pi)
  private def Phi(z: Double): Double = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
  private def erf(x: Double): Double = {
    // Abramowitz-Stegun 7.1.26; |error| < 1.5e-7 — ample for acquisition.
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
    val y = 1 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-x * x)
    if (x >= 0) y else -y
  }

  /** Every grid point's features, in `space.all` order. */
  private lazy val gridFeatures: Array[Array[Double]] = space.all.map(features).toArray

  /** The surrogate of a history: a GP from features to objective (Eq 6)
    * that keeps its posterior over the candidate grid.
    */
  def surrogate(hist: Seq[Observation]): GaussianProcess = {
    val gp = new GaussianProcess(gridFeatures)
    hist.foreach(observe(gp, _))
    gp
  }

  /** Adds `o` to `gp`, marking its grid point as probed. */
  def observe(gp: GaussianProcess, o: Observation): Unit = {
    val i = space.indexOf(o.conf)
    require(i >= 0, s"BayesOpt: ${o.conf} is not on the candidate grid")
    gp.addCandidate(i, o.objective)
  }

  /** The next probe: the EI argmax (first maximum in grid order) over the
    * unprobed grid points, with its EI; None once every point is probed.
    */
  def propose(gp: GaussianProcess, tau: Double): Option[(MemoryConf, Double)] = {
    gp.posterior()
    val (best, ei) = eiArgmax(gp.observed, gp.mean, gp.sd, tau)
    if (best < 0) None else Some((space.all(best), ei))
  }

  /** The unobserved candidate of largest EI, the first in index order among
    * equals under `Double.compare` (the total order `maxBy` uses on
    * Doubles), with its EI; (−1, 0) if every candidate is observed.
    *
    * EI is evaluated first where [[eiBound]] is largest, then in index
    * order only where the bound reaches the best EI so far: a candidate
    * whose bound is below it cannot be the maximum.
    */
  private[opt] def eiArgmax(observed: Array[Boolean], mean: Array[Double], sd: Array[Double],
                            tau: Double): (Int, Double) = {
    val bound = new Array[Double](observed.length)
    var best = -1
    var c = 0
    while (c < observed.length) {
      if (!observed(c)) {
        bound(c) = eiBound(mean(c), sd(c), tau)
        if (best < 0 || bound(c) > bound(best)) best = c
      }
      c += 1
    }
    if (best < 0) return (-1, 0.0)
    val first = best
    var bestEi = expectedImprovement(mean(best), sd(best), tau)
    c = 0
    while (c < observed.length) {
      if (!observed(c) && c != first && !(bound(c) < bestEi)) {
        val ei = expectedImprovement(mean(c), sd(c), tau)
        val cmp = java.lang.Double.compare(ei, bestEi)
        if (cmp > 0 || (cmp == 0 && c < best)) { best = c; bestEi = ei }
      }
      c += 1
    }
    (best, bestEi)
  }

  /** An upper bound on [[expectedImprovement]], with a 1e-9 margin for
    * rounding. The computed Φ stays in [0, 1] and the computed φ at most
    * 1/√(2π), so EI ≤ max(τ−μ, 0) + σ/√(2π). Above the incumbent (μ > τ)
    * the (τ−μ)·Φ term is not positive, and e^−u ≤ 1/(1 + u + u²/2 + u³/6)
    * bounds φ's exponential, u = z²/2, without calling `exp`.
    */
  private[opt] def eiBound(mu: Double, sigma: Double, tau: Double): Double = {
    val d = tau - mu
    if (d >= 0) (d + sigma * invSqrt2Pi) * (1 + 1e-9)
    else {
      val z = d / sigma
      val u = 0.5 * z * z
      sigma * invSqrt2Pi / (1 + u * (1 + u * (0.5 + u / 6))) * (1 + 1e-9)
    }
  }

  def tune(env: TuningEnv): TuningTrace = {
    space.lhs(initSamples, seed).foreach(env.evaluate)

    val gp = surrogate(Nil)
    var adaptive = 0
    var continue = true
    while (continue && adaptive < maxAdaptive) {
      val hist = env.history
      hist.drop(gp.size).foreach(observe(gp, _))
      propose(gp, incumbent(hist)) match {
        case None => continue = false
        case Some((conf, ei)) =>
          env.evaluate(conf)
          adaptive += 1
          if (adaptive >= minAdaptive && ei < eiThreshold * math.abs(incumbent(hist))) continue = false
      }
    }
    env.trace
  }

  /** τ of Eq 7: the best objective observed so far. A fold, not `.min`:
    * C2 gave up compiling Scala's generic `min` for this caller after
    * seconds of work, and the compiler memory it kept raised peak RSS.
    */
  private def incumbent(hist: Seq[Observation]): Double =
    hist.foldLeft(Double.PositiveInfinity)((best, o) => math.min(best, o.objective))
}
