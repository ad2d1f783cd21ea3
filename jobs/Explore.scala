package repro.jobs

import repro.core.RelM
import repro.opt._
import repro.sim._
import repro.tables.Tables

/** Calibration probe (not a paper table): prints the simulator's view of
  * every app under key configurations so model constants can be sanity
  * checked quickly. Kept in jobs/ because it is useful when re-calibrating.
  */
object Explore {
  def fmt(r: RunResult): String =
    f"${r.conf.toString}%-70s rt=${r.runtimeMin}%7.1fmin gc=${r.gcOverhead}%4.2f H=${r.cacheHitRatio}%4.2f " +
      f"S=${r.spillFraction}%4.2f heap=${r.maxHeapUtil}%4.2f cpu=${r.cpuUtil}%4.2f disk=${r.diskUtil}%4.2f " +
      f"fail=${r.failedContainers}%2d abort=${r.aborted} fullGc=${r.profile.hasFullGc}"

  def main(args: Array[String]): Unit = {
    val hw = Hardware.ClusterA
    val sim = new Simulator(hw)

    println("=== containers sweep (defaults otherwise, Fig 4) ===")
    for (app <- AppModel.clusterASuite; n <- 1 to 4) {
      val c = MemoryConf.of(hw, n, 2, 0.6, 0.0, 2)
      println(f"${app.name}%-10s " + fmt(sim.run(app, c)))
    }

    println("\n=== concurrency sweep n=1 (Fig 6) ===")
    for (app <- AppModel.clusterASuite; p <- Seq(1, 2, 4, 8)) {
      val c = MemoryConf.of(hw, 1, p, 0.6, 0.0, 2)
      println(f"${app.name}%-10s " + fmt(sim.run(app, c)))
    }

    println("\n=== cap sweep n=1 p=2 (Fig 7) ===")
    for (app <- AppModel.clusterASuite; cap <- Seq(0.1, 0.2, 0.4, 0.6, 0.7, 0.8)) {
      val p = if (app.name == "PageRank") 1 else 2
      val c = MemoryConf.of(hw, 1, p, cap, 0.0, 2)
      println(f"${app.name}%-10s " + fmt(sim.run(app, c)))
    }

    println("\n=== NewRatio sweep, K-means cache .6 (Fig 9) ===")
    for (nr <- 1 to 8) {
      val c = MemoryConf.of(hw, 1, 2, 0.6, 0.0, nr)
      println(fmt(sim.run(AppModel.kMeans, c)))
    }

    println("\n=== Table 5 manual PageRank ===")
    Tables.table5(sim).foreach(r => println(fmt(r.result)))

    println("\n=== RelM per app ===")
    for (app <- AppModel.clusterASuite) {
      val res = RelM.tune(app, sim)
      println(f"${app.name}%-10s profiles=${res.profileRuns.size} stats=${res.stats}")
      for (a <- res.candidates; c = RelM.toConf(hw, a))
        println(f"   cand n=${a.n} p=${a.p} cache=${c.cacheCap}%4.2f " +
          f"shuf=${c.shuffleCap}%4.2f NR=${a.nr} U=${a.utility}%5.3f iters=${a.iterations}")
      println("   pick  " + fmt(sim.run(app, res.recommended)))
    }

    println("\n=== Exhaustive best per app ===")
    for (app <- AppModel.clusterASuite) {
      val space = new ConfigSpace(hw, app)
      val env = new TuningEnv(app, sim)
      val tr = Exhaustive.tune(space, env)
      println(f"${app.name}%-10s grid=${tr.iterations} best=" + fmt(tr.best.result))
    }

    println("\n=== TPC-H on Cluster B ===")
    val (default, tuned) = Tables.tpchHeadline()
    println("default " + fmt(default))
    println("RelM    " + fmt(tuned))
  }
}
