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

  /** The surrogate of a history: a GP from features to objective (Eq 6). */
  def fit(hist: Seq[Observation]): GaussianProcess = {
    val gp = new GaussianProcess()
    gp.fit(hist.map(o => features(o.conf)).toArray, hist.map(_.objective).toArray)
    gp
  }

  /** The next probe: the EI argmax (first maximum in grid order) over the
    * grid points `hist` has not probed, with its EI; None once every point
    * is probed.
    */
  def propose(gp: GaussianProcess, hist: Seq[Observation]): Option[(MemoryConf, Double)] = {
    val tau = incumbent(hist)
    val seen = hist.map(_.conf).toSet
    val cands = space.all.filterNot(seen.contains)
    if (cands.isEmpty) None
    else Some(cands.iterator
      .map { c => val (m, s) = gp.predict(features(c)); (c, expectedImprovement(m, s, tau)) }
      .maxBy(_._2))
  }

  def tune(env: TuningEnv): TuningTrace = {
    space.lhs(initSamples, seed).foreach(env.evaluate)

    var adaptive = 0
    var continue = true
    while (continue && adaptive < maxAdaptive) {
      val hist = env.history
      propose(fit(hist), hist) match {
        case None => continue = false
        case Some((conf, ei)) =>
          env.evaluate(conf)
          adaptive += 1
          if (adaptive >= minAdaptive && ei < eiThreshold * math.abs(incumbent(hist))) continue = false
      }
    }
    env.trace
  }

  /** τ of Eq 7: the best objective observed so far. */
  private def incumbent(hist: Seq[Observation]): Double = hist.map(_.objective).min
}
