package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.sim._

/** End-to-end RelM (Sec 4, Fig 12) + the Section-6.4 analyses:
  * full-GC sensitivity (Fig 22), profile robustness (Fig 23), and the
  * utility-vs-performance ranking (Fig 24).
  */
class RelMSpec extends AnyFunSuite {

  private val hw = Hardware.ClusterA
  private val sim = new Simulator(hw)

  test("RelM recommendations are safe for every application (Fig 17 claim)") {
    for (app <- AppModel.clusterASuite) {
      val res = RelM.tune(app, sim)
      val run = sim.run(app, res.recommended, seed = 99)
      assert(run.safe, s"${app.name} → ${res.recommended}: " +
        s"failed=${run.failedContainers} aborted=${run.aborted}")
    }
  }

  test("re-profiling triggers exactly when the first profile lacks full GCs") {
    for (app <- AppModel.clusterASuite) {
      val first = sim.run(app, MemoryConf.default(hw))
      val res = RelM.tune(app, sim)
      if (first.profile.hasFullGc) assert(res.profileRuns.size == 1, app.name)
      else {
        assert(res.profileRuns.size == 2, app.name)
        assert(res.profileRuns.last.profile.hasFullGc, app.name)
      }
    }
  }

  test("the re-profiling heuristics raise GC pressure (smaller heap, more NR)") {
    val c = MemoryConf.default(hw)
    val r = RelM.reprofileConf(hw, c)
    assert(r.heapMb < c.heapMb)
    assert(r.newRatio > c.newRatio)
  }

  test("Fig 22: without full-GC events M_u is over-estimated by ~2 orders of magnitude") {
    val run = sim.run(AppModel.svm, MemoryConf.default(hw))
    assert(!run.profile.hasFullGc) // SVM's default profile lacks full GCs
    val naive = StatsGenerator.fromRun(run)
    val factor = naive.muMb / AppModel.svm.taskUnmanagedMb
    assert(factor > 10 && factor < 200, s"over-estimation factor $factor")
  }

  test("Fig 22: over-estimated M_u yields over-provisioned (but safe) plans") {
    val run = sim.run(AppModel.svm, MemoryConf.default(hw))
    val naive = StatsGenerator.fromRun(run)
    val goodRes = RelM.tune(AppModel.svm, sim)
    val cands = RelM.candidates(naive, hw)
    assert(cands.nonEmpty) // cache-free fallback keeps RelM total
    val naiveBest = cands.maxBy(_.utility)
    // The conservative estimate can only lower concurrency…
    assert(naiveBest.p <= goodRes.recommended.taskConcurrency)
    // …and the resulting plan is reliable but slower (paper Fig 22).
    val naiveRun = sim.run(AppModel.svm, RelM.toConf(hw, naiveBest))
    assert(naiveRun.safe)
    assert(naiveRun.runtimeSec >= sim.run(AppModel.svm, goodRes.recommended).runtimeSec)
  }

  test("Fig 23: M_u estimates are stable across full-GC-bearing profiles") {
    val profiles = for {
      n <- Seq(2, 4); p <- Seq(2); cap <- Seq(0.4, 0.6)
      run = sim.run(AppModel.kMeans, MemoryConf.of(hw, n, p, cap, 0.0, 2))
      if run.profile.hasFullGc
    } yield StatsGenerator.fromRun(run)
    assert(profiles.size >= 2)
    val mus = profiles.map(_.muMb)
    assert(mus.max / mus.min < 1.1) // little variance (log-scale plot in paper)
  }

  test("Fig 23: recommendations barely move across starting profiles") {
    val starts = Seq(
      MemoryConf.of(hw, 1, 2, 0.6, 0.0, 2),
      MemoryConf.of(hw, 2, 2, 0.6, 0.0, 2),
      MemoryConf.of(hw, 2, 1, 0.4, 0.0, 3))
    val runtimes = starts.map { s0 =>
      // RelM.tune's steps, profiling on s0 instead of the default.
      val (st, _) = RelM.gatherStats(AppModel.kMeans, sim, s0)
      val pick = RelM.toConf(hw, RelM.candidates(st, hw).maxBy(_.utility))
      sim.run(AppModel.kMeans, pick, 17).runtimeSec
    }
    assert(runtimes.max / runtimes.min < 1.25)
  }

  test("Fig 24: the utility score ranks candidates consistently with performance") {
    // Aggregate over apps: among safe candidates, the top-utility pick must
    // not be far off the best candidate by actual runtime.
    for (app <- Seq(AppModel.kMeans, AppModel.svm, AppModel.wordCount)) {
      val res = RelM.tune(app, sim)
      val byRuntime = res.candidates.map(a => sim.run(app, RelM.toConf(hw, a), 3).runtimeSec)
      val pickRuntime = sim.run(app, res.recommended, 3).runtimeSec
      assert(pickRuntime <= byRuntime.min * 1.6,
        s"${app.name}: picked $pickRuntime vs best candidate ${byRuntime.min}")
    }
  }

  test("candidate enumeration covers only feasible container sizes") {
    val res = RelM.tune(AppModel.pageRank, sim)
    // PageRank's 770MB tasks + cache cannot fit 3-4 containers per node.
    assert(res.candidates.map(_.n).forall(n => n == 1 || n == 2))
  }
}
