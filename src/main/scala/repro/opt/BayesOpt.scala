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

  /** Every grid point's features, in `space.all` order. */
  private lazy val gridFeatures: Array[Array[Double]] = space.all.map(features).toArray

  /** A session's surrogate together with its EI sweep state over the grid.
    * Each observed point appends one GP factor row and one entry to every
    * grid point's cross-covariance k* and forward-solve vector v, so a
    * sweep over m points with n observations costs O(m·n). Its posterior
    * at every point equals, bit for bit, `GaussianProcess.predict` of a GP
    * fitted to the same observations.
    */
  final class Session {
    private val gp = new GaussianProcess()
    private val grid = space.all
    private val m = grid.size
    private val probed = new Array[Boolean](m)
    /** Row i: k(x_i, ·) over the grid. */
    private var kStar: Array[Array[Double]] = Array.empty
    /** Row i: entry i of every grid point's forward solve L v = k*. */
    private var v: Array[Array[Double]] = Array.empty
    /** Σ v², accumulated in row order as `LinAlg.dot(v, v)` sums it. */
    private val vv = new Array[Double](m)
    private val prior = gridFeatures.map(f => gp.kernel(f, f))
    /** The last sweep's posterior mean and standard deviation per point. */
    private[opt] val mean = new Array[Double](m)
    private[opt] val sd = new Array[Double](m)

    def size: Int = gp.size

    def observe(o: Observation): Unit = {
      val i = grid.indexOf(o.conf)
      val x = if (i >= 0) gridFeatures(i) else features(o.conf)
      if (i >= 0) probed(i) = true
      gp.add(x, o.objective)
      kStar = kStar :+ gridFeatures.map(gp.kernel(x, _))
      v = v :+ new Array[Double](m)
      val from = gp.factorChangedFrom
      if (from == 0) java.util.Arrays.fill(vv, 0.0)
      (from until size).foreach(solveRow)
    }

    /** Row r of every grid point's v, subtracting in `forwardSolve`'s order. */
    private def solveRow(r: Int): Unit = {
      val l = gp.factorRow(r)
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

    /** Fills [[mean]] and [[sd]] at every grid point. */
    private[opt] def posterior(): Unit = {
      java.util.Arrays.fill(mean, 0.0)
      val alpha = gp.weights
      var i = 0
      while (i < size) {
        val a = alpha(i)
        val ki = kStar(i)
        var c = 0
        while (c < m) { mean(c) += ki(c) * a; c += 1 }
        i += 1
      }
      val yMean = gp.targetMean
      val yStd = gp.targetStd
      var c = 0
      while (c < m) {
        mean(c) = mean(c) * yStd + yMean
        sd(c) = math.sqrt(math.max(0.0, prior(c) - vv(c))) * yStd
        c += 1
      }
    }

    /** The next probe: the EI argmax (first maximum in grid order) over the
      * unprobed grid points, with its EI; None once every point is probed.
      */
    def propose(tau: Double): Option[(MemoryConf, Double)] = {
      posterior()
      var best = -1
      var bestEi = 0.0
      var c = 0
      while (c < m) {
        if (!probed(c)) {
          val ei = expectedImprovement(mean(c), sd(c), tau)
          // Double.compare is the total order `maxBy` uses on Doubles.
          if (best < 0 || java.lang.Double.compare(ei, bestEi) > 0) { best = c; bestEi = ei }
        }
        c += 1
      }
      if (best < 0) None else Some((grid(best), bestEi))
    }
  }

  /** A session that has observed `hist`, in order. */
  def session(hist: Seq[Observation]): Session = {
    val s = new Session
    hist.foreach(s.observe)
    s
  }

  /** The next probe after `hist`: see [[Session.propose]]. */
  def propose(hist: Seq[Observation]): Option[(MemoryConf, Double)] =
    session(hist).propose(incumbent(hist))

  def tune(env: TuningEnv): TuningTrace = {
    space.lhs(initSamples, seed).foreach(env.evaluate)

    val s = new Session
    var adaptive = 0
    var continue = true
    while (continue && adaptive < maxAdaptive) {
      val hist = env.history
      hist.drop(s.size).foreach(s.observe)
      s.propose(incumbent(hist)) match {
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
