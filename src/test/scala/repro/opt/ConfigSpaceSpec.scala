package repro.opt

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{AppModel, Hardware}

/** The tuners' discretized knob space (Sec 6.1) and LHS bootstrap (Table 7). */
class ConfigSpaceSpec extends AnyFunSuite {

  private val hw = Hardware.ClusterA
  private val space = new ConfigSpace(hw, AppModel.svm)

  test("the exhaustive grid has the paper's 192 points on Cluster A") {
    assert(Exhaustive.grid(space).size == 192)
  }

  test("the candidate grid has no repeated point, so BO marks a probe by its one index") {
    for (app <- AppModel.clusterASuite) {
      val space = new ConfigSpace(hw, app)
      val all = space.all
      assert(all.distinct.size == all.size, app.name)
      assert(all.indices.forall(i => space.indexOf(all(i)) == i), app.name)
      assert(space.indexOf(space.conf(1, 1, 0.03, 1)) == -1, app.name) // capacity off the grid
    }
  }

  test("the exhaustive grid respects the cores-per-container bound") {
    for (c <- Exhaustive.grid(space))
      assert(c.taskConcurrency <= hw.maxConcurrency(c.containersPerNode))
  }

  test("dominant-pool routing: cache apps tune cacheCap, others shuffleCap") {
    val cacheConf = new ConfigSpace(hw, AppModel.svm).conf(1, 2, 0.4, 3)
    assert(cacheConf.cacheCap == 0.4 && cacheConf.shuffleCap == 0.1)
    val shufConf = new ConfigSpace(hw, AppModel.sortByKey).conf(1, 2, 0.4, 3)
    assert(shufConf.shuffleCap == 0.4 && shufConf.cacheCap == 0.0)
  }

  test("feature encoding is normalized to the unit cube") {
    for (c <- space.all) {
      val f = space.encode(c)
      assert(f.forall(v => v >= 0.0 && v <= 1.0), c.toString)
    }
  }

  test("fromUnit maps every unit point to a legal grid configuration") {
    val rnd = new scala.util.Random(1)
    for (_ <- 0 until 200) {
      val c = space.fromUnit(Array.fill(4)(rnd.nextDouble()))
      assert(c.containersPerNode >= 1 && c.containersPerNode <= 4)
      assert(c.taskConcurrency <= hw.maxConcurrency(c.containersPerNode))
      assert(c.newRatio >= 1 && c.newRatio <= 9)
    }
  }

  test("Table 7: LHS yields 4 samples stratified on the capacity dimension") {
    val samples = space.lhs(4, seed = 42)
    assert(samples.size == 4)
    val caps = samples.map(c => math.max(c.cacheCap, c.shuffleCap))
    // one sample per quartile of [0.05, 0.8]
    val quartiles = caps.map(c => ((c - 0.05) / 0.75 * 4).toInt.min(3))
    assert(quartiles.distinct.size == 4, s"caps=$caps")
  }

  test("Table 7: LHS covers distinct container counts") {
    val samples = space.lhs(4, seed = 42)
    assert(samples.map(_.containersPerNode).distinct.size == 4)
  }

  test("LHS is deterministic in the seed and varies across seeds") {
    assert(space.lhs(4, 7) == space.lhs(4, 7))
    assert(space.lhs(4, 7) != space.lhs(4, 8))
  }

  test("the full grid is large enough for acquisition search but bounded") {
    assert(space.all.size > 500 && space.all.size < 10000)
    assert(space.all.distinct.size == space.all.size)
  }
}
