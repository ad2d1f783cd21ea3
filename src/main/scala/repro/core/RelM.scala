package repro.core

import repro.sim.{AppModel, Hardware, MemoryConf, RunResult, Simulator}

/** Full RelM tuning outcome.
  *
  * @param recommended the Selector's pick (max utility among safe candidates)
  * @param candidates  best arbitrated configuration per container size
  * @param profileRuns profiled executions consumed (1, or 2 when the first
  *                    profile lacked full-GC events — paper Sec 4.1)
  */
final case class RelMResult(
    recommended: MemoryConf,
    candidates: Seq[Arbitrated],
    profileRuns: Seq[RunResult],
)

/** RelM tuner (paper Sec 4, Fig 12): Statistics Generator → Enumerator over
  * container sizes → Initializer → Arbitrator → Selector by utility score.
  */
object RelM {

  val delta: Double = 0.1 // safety fraction δ, fixed at 0.1 in the evaluation

  /** Profiling-configuration heuristics when the first profile has no
    * full-GC events (paper Sec 4.1): decrease Heap Size, increase Task
    * Concurrency, increase NewRatio — all three raise GC pressure.
    */
  def reprofileConf(hw: Hardware, c: MemoryConf): MemoryConf = {
    val n = hw.containerChoices.max
    MemoryConf.of(
      hw, n,
      p = math.min(hw.maxConcurrency(n), c.taskConcurrency * 2),
      cacheCap = c.cacheCap, shuffleCap = c.shuffleCap,
      newRatio = math.min(Initializer.maxNewRatio, c.newRatio + 3))
  }

  /** Obtain a trustworthy statistics vector: profile on `startConf`, and if
    * the profile lacks full-GC events re-profile once with the heuristics.
    */
  def gatherStats(app: AppModel, sim: Simulator, startConf: MemoryConf,
                  seed: Long = 0L): (Stats, Seq[RunResult]) = {
    val first = sim.run(app, startConf, seed)
    val runs =
      if (first.profile.hasFullGc) Seq(first)
      else Seq(first, sim.run(app, reprofileConf(sim.hw, startConf), seed + 1))
    (StatsGenerator.fromRun(runs.last), runs)
  }

  /** Enumerator + Initializer + Arbitrator over every container size. When a
    * grossly over-estimated M_u (no-full-GC profile, Fig 22) makes every
    * cache-bearing plan infeasible, fall back to cache-free plans — the
    * "sub-optimal, albeit reliable" recommendations the paper describes.
    */
  def candidates(st: Stats, hw: Hardware): Seq[Arbitrated] = {
    def enumerate(s: Stats): Seq[Arbitrated] =
      hw.containerChoices.flatMap { n =>
        val mh = hw.heapMb(n)
        val ic = Initializer.init(s, n, mh, hw.maxConcurrency(n))
        Arbitrator.arbitrate(s, n, mh, ic)
      }
    val primary = enumerate(st)
    if (primary.nonEmpty) primary else enumerate(st.copy(mcMb = 0, h = 1.0))
  }

  /** Materialize an arbitrated plan as knob settings. The Arbitrator works
    * in MB; the framework knob (like spark.memory.fraction) is a fraction of
    * (heap − reserved), so the MB targets are converted against that base to
    * avoid silently under-provisioning small heaps.
    */
  def toConf(hw: Hardware, a: Arbitrated): MemoryConf = {
    val base = math.max(1.0, a.mhMb - MemoryConf.reservedMb)
    val cacheCap = math.min(1.0 - delta, a.mcMb / base)
    val shuffleCap = math.min(math.max(0.0, 1.0 - delta - cacheCap), a.p * a.msMb / base)
    MemoryConf.of(hw, a.n, a.p, cacheCap = cacheCap, shuffleCap = shuffleCap, newRatio = a.nr)
  }

  /** End-to-end tuning from the default configuration's profile. */
  def tune(app: AppModel, sim: Simulator, seed: Long = 0L): RelMResult = {
    val (st, runs) = gatherStats(app, sim, MemoryConf.default(sim.hw), seed)
    val cands = candidates(st, sim.hw)
    require(cands.nonEmpty, s"RelM: no safe candidate for ${app.name}")
    RelMResult(toConf(sim.hw, cands.maxBy(_.utility)), cands, runs)
  }
}
