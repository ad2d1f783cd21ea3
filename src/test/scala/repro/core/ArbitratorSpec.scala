package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{AppModel, Hardware, MemoryConf, Simulator}

/** Algorithm 1 (Sec 4.3), anchored on the paper's worked example (Fig 13):
  * starting from the Eq-5 initialization (m_c=3798MB, p=5, NR=9), the main
  * loop takes 9 iterations and ends at p=2, cache ≈ 1.5GB, NR=3.
  */
class ArbitratorSpec extends AnyFunSuite {

  val pageRankStats: Stats = Stats(
    n = 1, mhMb = 4404, cpuAvgPct = 35, diskAvgPct = 2,
    miMb = 115, mcMb = 2300, msMb = 0, muMb = 770,
    p = 2, h = 0.3, s = 0, hasFullGc = true)

  val paperInit: InitConf = InitConf(mcMb = 3798, msMb = 0, p = 5, nr = 9)

  test("Fig 13: the PageRank example converges in 9 iterations to (p=2, ~1.5GB, NR=3)") {
    val out = Arbitrator.arbitrate(pageRankStats, n = 1, mhMb = 4404, init = paperInit).get
    assert(out.iterations == 9)
    assert(out.p == 2)
    assert(out.nr == 3)
    assert(math.abs(out.mcMb - 1488) < 5) // 3798 − 3·770
  }

  test("Fig 13 endpoint satisfies the safety condition of line 4") {
    val out = Arbitrator.arbitrate(pageRankStats, 1, 4404, paperInit).get
    val demand = pageRankStats.miMb + out.p * pageRankStats.muMb + out.mcMb
    assert(demand <= MemoryConf.oldMb(4404, out.nr))
  }

  test("line 1: insufficient memory for a single task is flagged") {
    val st = pageRankStats.copy(muMb = 4300)
    assert(Arbitrator.arbitrate(st, 1, 4404, InitConf(0, 0, 1, 1)).isEmpty)
  }

  test("line 11: shuffle memory is capped at half the per-task Eden share (Obs 7)") {
    val st = pageRankStats.copy(mcMb = 0, msMb = 2000, muMb = 200)
    val out = Arbitrator.arbitrate(st, 1, 4404, InitConf(0, 2000, 2, 1)).get
    assert(out.msMb <= 0.5 * MemoryConf.edenMb(4404, out.nr) / out.p + 1e-9)
  }

  test("line 13: utility is the productive fraction of heap") {
    val out = Arbitrator.arbitrate(pageRankStats, 1, 4404, paperInit).get
    val expected = (115 + out.mcMb + out.p * (770 + out.msMb)) / 4404
    assert(math.abs(out.utility - expected) < 1e-9)
  }

  test("utility is in (0, 1] for all produced plans") {
    val hw = Hardware.ClusterA
    val sim = new Simulator(hw)
    for (app <- AppModel.clusterASuite) {
      val (st, _) = RelM.gatherStats(app, sim, MemoryConf.default(hw))
      for (a <- RelM.candidates(st, hw)) {
        assert(a.utility > 0 && a.utility <= 1.0, s"${app.name} n=${a.n}")
      }
    }
  }

  // Safety of every arbitrated plan, across the whole suite and every
  // container size (registration loop → one test per app × n). The same
  // contract is checked on random hardware in RelMPropertySpec.
  {
    val hw = Hardware.ClusterA
    val sim = new Simulator(hw)
    for (app <- AppModel.clusterASuite) {
      val (st, _) = RelM.gatherStats(app, sim, MemoryConf.default(hw))
      for (n <- hw.containerChoices) {
        test(s"arbitrated plan for ${app.name} at $n containers/node is safe (or rejected)") {
          val mh = hw.heapMb(n)
          val ic = Initializer.init(st, n, mh, hw.maxConcurrency(n))
          for (a <- Arbitrator.arbitrate(st, n, mh, ic)) {
            val broken = SafetyContract.violations(st, hw, a)
            assert(broken.isEmpty, broken.mkString("; "))
          }
        }
      }
    }
  }

  test("no-cache applications never receive a cache pool") {
    val st = pageRankStats.copy(mcMb = 0, msMb = 1200, muMb = 120)
    val out = Arbitrator.arbitrate(st, 4, 1101, InitConf(0, 1391, 2, 1)).get
    assert(out.mcMb == 0.0)
  }

  test("the loop terminates even on hopeless configurations") {
    val st = pageRankStats.copy(muMb = 1800, mcMb = 4000)
    // 2 tasks can never fit: must reject, not spin.
    val r = Arbitrator.arbitrate(st, 1, 4404, InitConf(3963, 0, 8, 1))
    assert(r.isEmpty || r.get.p >= 1)
  }
}
