package repro.sim

import org.scalatest.funsuite.AnyFunSuite

/** The simulator must exhibit every empirical shape of the paper's
  * Section 3 (Figs 4-11, Observations 1-7) — these are the properties that
  * make it a valid substitute for the physical cluster.
  */
class SimulatorSpec extends AnyFunSuite {

  private val hw = Hardware.ClusterA
  private val sim = new Simulator(hw)

  private def containers(app: AppModel, n: Int, p: Int = 2) =
    sim.run(app, MemoryConf.of(hw, n, p, 0.6, 0.0, 2))
  private def withP(app: AppModel, p: Int) = containers(app, 1, p)
  private def withCap(app: AppModel, cap: Double, p: Int = 2, nr: Int = 2) =
    sim.run(app, MemoryConf.of(hw, 1, p, cap, 0.0, nr))

  // ----- Fig 4: containers per node -----

  test("Fig 4 / Obs 1: WordCount speeds up on thinner containers") {
    assert(containers(AppModel.wordCount, 3).runtimeSec <
      0.6 * containers(AppModel.wordCount, 1).runtimeSec)
  }

  test("Fig 4 / Obs 1: SortByKey speeds up on thinner containers") {
    assert(containers(AppModel.sortByKey, 4).runtimeSec <
      containers(AppModel.sortByKey, 1).runtimeSec)
  }

  test("Fig 4: K-means degrades on thin containers and fails at 4 per node") {
    val r4 = containers(AppModel.kMeans, 4)
    assert(r4.aborted || r4.failedContainers > 0)
    assert(containers(AppModel.kMeans, 3).runtimeSec >
      containers(AppModel.kMeans, 2).runtimeSec * 0.9)
  }

  test("Fig 4: SVM improves then flattens with container count") {
    val rts = (1 to 3).map(containers(AppModel.svm, _).runtimeSec)
    assert(rts(1) < rts(0) && rts(2) < rts(0))
  }

  test("Fig 4/5: PageRank fails under the default setup (paper: aborted)") {
    val r = sim.run(AppModel.pageRank, MemoryConf.default(hw))
    assert(r.aborted && r.failedContainers > 0)
  }

  // ----- Fig 6: task concurrency -----

  test("Fig 6 / Obs 3: concurrency helps until a resource bottleneck") {
    for (app <- Seq(AppModel.wordCount, AppModel.svm, AppModel.kMeans))
      assert(withP(app, 2).runtimeSec < withP(app, 1).runtimeSec, app.name)
    // plateau/degradation at high concurrency for the memory-bound apps
    assert(withP(AppModel.kMeans, 8).runtimeSec > withP(AppModel.kMeans, 4).runtimeSec)
    assert(withP(AppModel.sortByKey, 8).runtimeSec > withP(AppModel.sortByKey, 4).runtimeSec)
  }

  test("Fig 6: PageRank runs out of memory for Task Concurrency >= 2") {
    assert(withP(AppModel.pageRank, 1).safe)
    assert(!withP(AppModel.pageRank, 2).safe)
    assert(!withP(AppModel.pageRank, 4).safe)
  }

  test("Fig 6: heap utilization grows with concurrency") {
    assert(withP(AppModel.kMeans, 4).maxHeapUtil > withP(AppModel.kMeans, 1).maxHeapUtil)
  }

  // ----- Fig 7: cache and shuffle capacity -----

  test("Fig 7 / Obs 4: cache capacity helps the ML apps up to a point") {
    for (app <- Seq(AppModel.kMeans, AppModel.svm)) {
      assert(withCap(app, 0.6).runtimeSec < withCap(app, 0.1).runtimeSec, app.name)
    }
  }

  test("Fig 7: SVM fits its working set from capacity ~0.5 and plateaus") {
    assert(withCap(AppModel.svm, 0.6).profile.hitRatio > 0.95)
    val plateau = withCap(AppModel.svm, 0.8).runtimeSec / withCap(AppModel.svm, 0.6).runtimeSec
    assert(plateau > 0.85 && plateau < 1.15)
  }

  test("Fig 7: K-means cannot fit all partitions before hitting memory limits") {
    assert(withCap(AppModel.kMeans, 0.8).profile.hitRatio < 1.0)
  }

  test("Fig 7 (counter-intuitive): more shuffle memory slows SortByKey down") {
    assert(withCap(AppModel.sortByKey, 0.6).runtimeSec >
      withCap(AppModel.sortByKey, 0.1).runtimeSec)
    assert(withCap(AppModel.sortByKey, 0.6).gcOverhead > 0.5) // paper: ~60% GC
  }

  test("Fig 7: PageRank containers fail at cache capacity 0.8") {
    val r = withCap(AppModel.pageRank, 0.8, p = 1)
    assert(r.failedContainers > 0)
  }

  test("Obs 2: over-provisioning internal pools is unreliable (SortByKey at 0.7)") {
    val r = withCap(AppModel.sortByKey, 0.7)
    assert(r.failedContainers > 0)
  }

  // ----- Figs 8-11: GC interactions -----

  test("Fig 9: K-means GC overhead is U-shaped in NewRatio with minimum at 2") {
    def g(nr: Int) = withCap(AppModel.kMeans, 0.6, nr = nr).gcOverhead
    assert(g(1) > g(2) && g(8) > g(2))
  }

  test("Fig 11: low NewRatio grows physical memory and gets containers killed") {
    val c2 = MemoryConf.of(hw, 1, 2, 0.6, 0.0, 2)
    val c5 = MemoryConf.of(hw, 1, 2, 0.6, 0.0, 5)
    val l2 = GcModel.load(AppModel.pageRank, hw, c2)
    val l5 = GcModel.load(AppModel.pageRank, hw, c5)
    assert(FailureModel.physicalMb(AppModel.pageRank, c2, l2) >
      FailureModel.physicalMb(AppModel.pageRank, c5, l5))
    val f2 = FailureModel.assess(AppModel.pageRank, hw, c2, l2,
      GcModel.gcOverhead(AppModel.pageRank, c2, l2))
    val f5 = FailureModel.assess(AppModel.pageRank, hw, c5, l5,
      GcModel.gcOverhead(AppModel.pageRank, c5, l5))
    assert(f2.pKill > f5.pKill)
  }

  // ----- general properties -----

  test("simulation is deterministic in (app, conf, seed)") {
    val c = MemoryConf.default(hw)
    for (app <- AppModel.all.take(3)) {
      val a = sim.run(app, c, 5)
      val b = sim.run(app, c, 5)
      assert(a == b)
    }
  }

  test("different seeds model run-to-run variability (Fig 5)") {
    val c = MemoryConf.default(hw)
    val rts = (0 until 5).map(s => sim.run(AppModel.sortByKey, c, s).runtimeSec)
    assert(rts.distinct.size > 1)
    assert(rts.max / rts.min < 1.4) // bounded noise
  }

  test("comfortably safe configurations never lose containers") {
    val r = sim.run(AppModel.wordCount, MemoryConf.of(hw, 2, 2, 0.0, 0.2, 1))
    assert(r.safe)
  }

  test("profiles expose the Table-6 measurement channels") {
    val r = sim.run(AppModel.pageRank, MemoryConf.default(hw))
    val p = r.profile
    assert(p.miMb > 0 && p.mcMb > 0 && p.muMeasuredMb > 0)
    assert(p.cpuAvgPct >= 0 && p.cpuAvgPct <= 100)
    assert(p.hitRatio >= 0 && p.hitRatio <= 1)
  }

  test("aborted runs report a time-of-death, not a completion time") {
    val bad = sim.run(AppModel.pageRank, MemoryConf.default(hw))
    assert(bad.aborted && bad.runtimeSec > 0)
  }
}
