package repro.core

import repro.sim.RunResult

/** The Table-6 statistic vector derived from an application profile
  * (paper Sec 4.1) — the only application knowledge RelM / GBO / DDPG use.
  *
  * @param n        containers per node of the profiled run
  * @param mhMb     heap size of the profiled run (M_h)
  * @param cpuAvgPct  average node CPU usage, percent
  * @param diskAvgPct average node disk usage, percent
  * @param miMb     Code Overhead 90%ile (M_i)
  * @param mcMb     Cache Storage 90%ile (M_c, as-used, possibly capacity-bound)
  * @param msMb     Task Shuffle 90%ile (M_s, as-used, possibly capacity-bound)
  * @param muMb     Task Unmanaged 90%ile (M_u); over-estimated from Old
  *                 occupancy when the profile lacks full-GC events
  * @param p        Task Concurrency of the profiled run (P)
  * @param h        Cache Hit Ratio (H)
  * @param s        Data Spillage Fraction (S)
  * @param hasFullGc whether M_u came from full-GC observations (trustworthy)
  */
final case class Stats(
    n: Int,
    mhMb: Double,
    cpuAvgPct: Double,
    diskAvgPct: Double,
    miMb: Double,
    mcMb: Double,
    msMb: Double,
    muMb: Double,
    p: Int,
    h: Double,
    s: Double,
    hasFullGc: Boolean,
)

/** Statistics Generator (step 1 of Fig 12). */
object StatsGenerator {

  /** Reduce a run's profile to the Table-6 vector. When the profile has no
    * full-GC events the only safe M_u estimate is the maximum Old-pool
    * occupancy — a deliberate over-estimate (paper Sec 4.1, Fig 22).
    */
  def fromRun(run: RunResult): Stats = {
    val pr = run.profile
    val mu =
      if (pr.hasFullGc) pr.muMeasuredMb
      else math.max(pr.muMeasuredMb, pr.maxOldOccupancyMb)
    Stats(
      n = run.conf.containersPerNode,
      mhMb = run.conf.heapMb,
      cpuAvgPct = pr.cpuAvgPct,
      diskAvgPct = pr.diskAvgPct,
      miMb = pr.miMb,
      mcMb = pr.mcMb,
      msMb = pr.msMb,
      muMb = mu,
      p = run.conf.taskConcurrency,
      h = pr.hitRatio,
      s = pr.spillFraction,
      hasFullGc = pr.hasFullGc,
    )
  }
}
