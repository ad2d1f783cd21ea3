package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{Hardware, MemoryConf}

/** The guiding white-box model Q (Eq 8): its three metrics must separate
  * desirable configurations from expensive ones along the axes the paper
  * designed them for.
  */
class QModelSpec extends AnyFunSuite {

  private val hw = Hardware.ClusterA

  val pageRankStats: Stats = Stats(
    n = 1, mhMb = 4404, cpuAvgPct = 35, diskAvgPct = 2,
    miMb = 115, mcMb = 2300, msMb = 0, muMb = 770,
    p = 2, h = 0.3, s = 0, hasFullGc = true)

  val sortStats: Stats = Stats(
    n = 1, mhMb = 4404, cpuAvgPct = 18, diskAvgPct = 20,
    miMb = 90, mcMb = 0, msMb = 1230, muMb = 120,
    p = 2, h = 1.0, s = 0.23, hasFullGc = true)

  private def conf(n: Int, p: Int, cache: Double, shuffle: Double, nr: Int) =
    MemoryConf.of(hw, n, p, cache, shuffle, nr)

  test("q1 flags unsafe over-commitment (score > 1) at high concurrency") {
    val q2 = QModel.derive(pageRankStats, conf(1, 2, 0.6, 0.0, 2))
    val q4 = QModel.derive(pageRankStats, conf(1, 4, 0.6, 0.0, 2))
    assert(q4.q1 > q2.q1)
    assert(q4.q1 > 1.0)
  }

  test("q1 flags under-utilization (low score) on empty configurations") {
    val q = QModel.derive(pageRankStats, conf(1, 1, 0.05, 0.0, 2))
    assert(q.q1 < 0.5)
  }

  test("q2 explodes when the cache allocation starves the long-term requirement") {
    val starved = QModel.derive(pageRankStats, conf(1, 1, 0.2, 0.0, 2))
    val fed = QModel.derive(pageRankStats, conf(1, 1, 0.8, 0.0, 2))
    assert(starved.q2 > 2.0)
    assert(fed.q2 < starved.q2)
  }

  test("q2 detects Old pools smaller than the long-term data (Obs 5)") {
    val smallOld = QModel.derive(pageRankStats, conf(1, 1, 0.9, 0.0, 1))
    val bigOld = QModel.derive(pageRankStats, conf(1, 1, 0.9, 0.0, 6))
    assert(smallOld.q2 >= bigOld.q2)
  }

  test("q3 flags shuffle allocations beyond half of Eden (Obs 7)") {
    val hot = QModel.derive(sortStats, conf(1, 2, 0.0, 0.6, 2))
    val cool = QModel.derive(sortStats, conf(1, 2, 0.0, 0.1, 1))
    assert(hot.q3 > 1.0)
    assert(cool.q3 < hot.q3)
  }

  test("q3 is zero for apps with no shuffle footprint") {
    val q = QModel.derive(pageRankStats, conf(1, 2, 0.6, 0.1, 2))
    assert(q.q3 == 0.0)
  }

  test("modeled requirements match Eqs 1-2 used by the Initializer") {
    for (n <- hw.containerChoices) {
      // Cache-free: q2's denominator is the whole Old pool.
      val c = conf(n, 1, 0.0, 0.0, 2)
      val ic = Initializer.init(pageRankStats, n, c.heapMb, hw.maxConcurrency(n))
      val q2Numerator = QModel.derive(pageRankStats, c).q2 * math.max(1.0, c.oldMb)
      assert(math.abs(q2Numerator - (pageRankStats.miMb + ic.mcMb)) < 1e-6, s"n=$n")
    }
    // Shuffle pool above the Eq 2 requirement, so q3 uses the requirement.
    val c = conf(1, 2, 0.0, 0.9, 2)
    val ic = Initializer.init(sortStats, 1, c.heapMb, hw.maxConcurrency(1))
    assert(c.shuffleCap * c.heapMb / c.taskConcurrency > ic.msMb)
    val perTaskShuffle =
      QModel.derive(sortStats, c).q3 * math.max(1.0, 0.5 * c.edenMb) / c.taskConcurrency
    assert(math.abs(perTaskShuffle - ic.msMb) < 1e-6)
  }

  test("metrics are finite on degenerate configurations") {
    for (p <- 1 to 8; nr <- Seq(1, 9); cap <- Seq(0.0, 0.05, 0.9)) {
      val q = QModel.derive(pageRankStats, conf(4, math.min(p, 2), cap, 0.0, nr))
      assert(!q.q1.isNaN && !q.q2.isNaN && !q.q3.isNaN)
      assert(q.q1 >= 0 && q.q2 >= 0 && q.q3 >= 0)
    }
  }
}
