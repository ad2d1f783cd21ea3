package repro.opt

import org.scalatest.funsuite.AnyFunSuite
import repro.core.RelM
import repro.sim._

/** Bayesian Optimization (Sec 5.1): acquisition, stopping, and tuning
  * quality against the exhaustive baseline.
  */
class BoSpec extends AnyFunSuite {

  private val hw = Hardware.ClusterA
  private val sim = new Simulator(hw)

  private def bo(app: AppModel, seed: Long = 42) =
    new BayesOpt(new ConfigSpace(hw, app), guide = None, seed = seed)

  test("EI is the positive-part improvement when uncertainty vanishes") {
    val b = bo(AppModel.svm)
    assert(b.expectedImprovement(mu = 5, sigma = 0, tau = 7) == 2.0)
    assert(b.expectedImprovement(mu = 9, sigma = 0, tau = 7) == 0.0)
  }

  test("EI grows with uncertainty at equal mean") {
    val b = bo(AppModel.svm)
    val lo = b.expectedImprovement(mu = 7, sigma = 0.1, tau = 7)
    val hi = b.expectedImprovement(mu = 7, sigma = 2.0, tau = 7)
    assert(hi > lo && lo > 0)
  }

  test("EI prefers lower predicted means (minimization)") {
    val b = bo(AppModel.svm)
    assert(b.expectedImprovement(5, 1, 7) > b.expectedImprovement(6, 1, 7))
  }

  test("EI never exceeds the bound the argmax prunes with") {
    val b = bo(AppModel.svm)
    val rnd = new scala.util.Random(19)
    def check(mu: Double, sigma: Double, tau: Double): Unit = {
      val (ei, bound) = (b.expectedImprovement(mu, sigma, tau), b.eiBound(mu, sigma, tau))
      assert(ei <= bound, s"mu $mu, sigma $sigma, tau $tau: EI $ei > bound $bound")
    }
    for (_ <- 0 until 100000) {
      val mu = rnd.nextGaussian() * math.pow(10, rnd.nextInt(9) - 2)
      val sigma = math.abs(rnd.nextGaussian()) * math.pow(10, rnd.nextInt(9) - 4)
      check(mu, sigma, mu + rnd.nextGaussian() * sigma * 10)
    }
    for (sigma <- Seq(0.0, 1e-13, 1e-12, 1e-6, 1.0, 1e6); z <- (-320 to 320).map(_ / 8.0); mu <- Seq(-3.0, 0.0, 7.5, 1e4))
      check(mu, sigma, mu + z * sigma)
    for (mu <- Seq(-1e3, -1.0, 0.0, 2.0, 1e5); sigma <- Seq(0.0, 1e-13, 0.5, 1e6)) check(mu, sigma, tau = mu)
  }

  test("the pruned EI argmax is the first maximum in index order, ties included") {
    val b = bo(AppModel.svm)
    def bruteForce(observed: Array[Boolean], mean: Array[Double], sd: Array[Double], tau: Double): (Int, Double) = {
      val open = observed.indices.filterNot(observed)
      if (open.isEmpty) (-1, 0.0)
      else {
        val i = open.maxBy(c => b.expectedImprovement(mean(c), sd(c), tau))
        (i, b.expectedImprovement(mean(i), sd(i), tau))
      }
    }
    // Candidates 2 and 5 have the same EI, 2.0, but 5 has the larger bound,
    // so the sweep starts there; candidate 0 is better but already observed.
    val observed = Array(true, false, false, false, false, false, false)
    val mean = Array(1.0, 9.0, 5.0, 6.0, 9.0, 5.0, 8.0)
    val sd = Array(0.0, 0.0, 0.0, 0.0, 0.0, 1e-12, 0.0)
    assert(b.eiBound(mean(5), sd(5), 7.0) > b.eiBound(mean(2), sd(2), 7.0))
    assert(b.eiArgmax(observed, mean, sd, tau = 7.0) == ((2, 2.0)))
    assert(b.eiArgmax(Array.fill(3)(true), Array.fill(3)(0.0), Array.fill(3)(1.0), 7.0)._1 == -1)
    // Candidate 2's EI underflows to 0 but its bound does not, so the sweep
    // starts there; candidates 0 and 1, with bound 0, tie with it at EI 0.
    val far = (Array.fill(4)(false), Array(9.0, 9.0, 47.0, 8.0), Array(0.0, 0.0, 1.0, 0.0))
    assert(b.expectedImprovement(47.0, 1.0, 7.0) == 0.0 && b.eiBound(47.0, 1.0, 7.0) > 0.0)
    assert(b.eiArgmax(far._1, far._2, far._3, tau = 7.0) == ((0, 0.0)))
    // Quantized means and deviations make many ties and many equal bounds.
    val rnd = new scala.util.Random(23)
    for (trial <- 0 until 2000) {
      val m = 1 + rnd.nextInt(40)
      val observed = Array.fill(m)(rnd.nextInt(4) == 0)
      val mean = Array.fill(m)(rnd.nextInt(6).toDouble)
      val sd = Array.fill(m)(if (rnd.nextBoolean()) 0.0 else rnd.nextInt(4) * 0.5)
      val tau = rnd.nextInt(6).toDouble
      val (got, want) = (b.eiArgmax(observed, mean, sd, tau), bruteForce(observed, mean, sd, tau))
      assert(got._1 == want._1 && got._2.equals(want._2), s"trial $trial: $got vs $want")
    }
  }

  test("BO starts from 4 LHS samples and takes at least 6 adaptive ones") {
    val env = new TuningEnv(AppModel.wordCount, sim)
    val tr = bo(AppModel.wordCount).tune(env)
    assert(tr.iterations >= 10) // 4 + ≥6 (CherryPick stopping rule)
    assert(tr.iterations <= 30) // 4 + at most 26 adaptive samples
  }

  /** One tuning session to check the sweep against: its name, space,
    * tuner, history, and every grid point's features.
    */
  private final class Run(val name: String, val space: ConfigSpace, val b: BayesOpt, val hist: Vector[Observation]) {
    lazy val feats: Vector[Array[Double]] = space.all.map(b.features)
  }

  /** The reference surrogate: a candidate-free GP fitted to `hist` from scratch. */
  private def fitted(b: BayesOpt, hist: Seq[Observation]): GaussianProcess = {
    val gp = new GaussianProcess()
    gp.fit(hist.map(o => b.features(o.conf)).toArray, hist.map(_.objective).toArray)
    gp
  }

  /** Table 9's SVM run of BO, GBO on the same app, and BO and GBO on
    * PageRank, whose aborts spend the whole 30-probe budget.
    */
  private lazy val runs: Seq[Run] =
    for (app <- Seq(AppModel.svm, AppModel.pageRank); guided <- Seq(false, true)) yield {
      val space = new ConfigSpace(hw, app)
      val guide = if (guided) Some(RelM.gatherStats(app, sim, MemoryConf.default(hw), 0L)._1) else None
      val b = new BayesOpt(space, guide, seed = 42)
      new Run(s"${if (guided) "GBO" else "BO"}/${app.name}", space, b, b.tune(new TuningEnv(app, sim)).history)
    }

  test("every adaptive probe of Table 9's run is the EI argmax of the history before it") {
    // The reference: one GaussianProcess.predict per unprobed grid point,
    // on a GP fitted to the prefix from scratch.
    for (r <- runs) {
      val nInit = r.space.lhs(4, 42).distinct.size
      assert(r.hist.size > nInit, r.name)
      if (r.name == "BO/PageRank") assert(r.hist.size == 30, r.name)
      for (k <- nInit until r.hist.size) {
        val prefix = r.hist.take(k)
        val gp = fitted(r.b, prefix)
        val tau = prefix.map(_.objective).min
        val seen = prefix.map(_.conf).toSet
        def ei(i: Int): Double = { val (m, s) = gp.predict(r.feats(i)); r.b.expectedImprovement(m, s, tau) }
        val want = r.space.all.indices.filterNot(i => seen(r.space.all(i))).maxBy(ei)
        assert(r.hist(k).conf == r.space.all(want), s"${r.name} step $k")
        val Some((conf, got)) = r.b.propose(r.b.surrogate(prefix), tau)
        assert(conf == r.space.all(want), s"${r.name} step $k")
        assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(ei(want)),
          s"${r.name} step $k: EI $got vs ${ei(want)}")
      }
    }
  }

  test("the sweep's posterior equals GaussianProcess.predict at every unseen grid point") {
    // BO's 4-d and GBO's 7-d features, after each of up to 30 observations.
    for (r <- runs) {
      val s = r.b.surrogate(Nil)
      for (k <- 1 to r.hist.size) {
        r.b.observe(s, r.hist(k - 1))
        s.posterior()
        val gp = fitted(r.b, r.hist.take(k))
        val seen = r.hist.take(k).map(_.conf).toSet
        val differing = r.space.all.indices.filterNot(i => seen(r.space.all(i))).count { i =>
          val (m, sd) = gp.predict(r.feats(i))
          s.mean(i) != m || s.sd(i) != sd
        }
        assert(differing == 0, s"${r.name} after $k observations")
      }
    }
  }

  test("BO finds a configuration close to the exhaustive optimum") {
    for (app <- Seq(AppModel.wordCount, AppModel.sortByKey, AppModel.svm)) {
      val exh = Exhaustive.tune(new ConfigSpace(hw, app), new TuningEnv(app, sim))
      val tr = bo(app).tune(new TuningEnv(app, sim))
      assert(tr.best.objective <= 1.5 * exh.best.objective, app.name)
      assert(tr.iterations < exh.iterations / 3, app.name) // way cheaper
    }
  }

  test("BO's recommendation is never an aborted configuration when avoidable") {
    val tr = bo(AppModel.kMeans).tune(new TuningEnv(AppModel.kMeans, sim))
    assert(!tr.best.result.aborted)
  }

  test("aborted probes are charged twice the worst runtime (Sec 6.1 objective)") {
    val env = new TuningEnv(AppModel.pageRank, sim)
    val good = env.evaluate(MemoryConf.of(hw, 1, 1, 0.4, 0.0, 2))
    val bad = env.evaluate(MemoryConf.default(hw)) // aborts
    assert(bad.result.aborted)
    assert(bad.objective >= 2.0 * math.min(good.objective, bad.result.runtimeSec) - 1e-6)
    assert(bad.objective > bad.result.runtimeSec)
  }

  test("the environment memoizes repeated probes (no double stress-testing)") {
    val env = new TuningEnv(AppModel.svm, sim)
    val c = MemoryConf.default(hw)
    env.evaluate(c); env.evaluate(c)
    assert(env.iterations == 1)
  }
}
