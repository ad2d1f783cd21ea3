package repro.opt

import org.scalatest.funsuite.AnyFunSuite
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

  test("BO starts from 4 LHS samples and takes at least 6 adaptive ones") {
    val env = new TuningEnv(AppModel.wordCount, sim)
    val tr = bo(AppModel.wordCount).tune(env)
    assert(tr.iterations >= 10) // 4 + ≥6 (CherryPick stopping rule)
    assert(tr.iterations <= 30) // 4 + at most 26 adaptive samples
  }

  test("every adaptive probe of Table 9's run is the EI argmax of the history before it") {
    val space = new ConfigSpace(hw, AppModel.svm)
    val b = bo(AppModel.svm)
    val hist = b.tune(new TuningEnv(AppModel.svm, sim)).history
    val nInit = space.lhs(4, 42).distinct.size
    assert(hist.size > nInit)
    for (k <- nInit until hist.size) {
      val prefix = hist.take(k)
      assert(b.propose(b.fit(prefix), prefix).map(_._1).contains(hist(k).conf), s"step $k")
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
