package repro.core

/** Initial per-pool settings for one candidate container size
  * (output of paper Sec 4.2).
  *
  * @param mcMb cache storage allocation (Eq 1)
  * @param msMb per-task shuffle allocation (Eq 2)
  * @param p    task concurrency (Eq 4)
  * @param nr   NewRatio (Eq 3)
  */
final case class InitConf(mcMb: Double, msMb: Double, p: Int, nr: Int)

/** Initializer module (paper Sec 4.2): optimizes each memory pool
  * independently from the profiled statistics; the Arbitrator resolves the
  * resulting contention.
  */
object Initializer {

  /** NewRatio is capped so ≥10% of heap stays young (paper Sec 6.1). */
  val maxNewRatio: Int = 9

  /** Eq 3: smallest NewRatio whose Old pool covers the long-term
    * requirement `longTermMb`, clamped to [1, 9].
    */
  def newRatioFor(longTermMb: Double, mhMb: Double): Int = {
    val free = mhMb - longTermMb
    if (free <= 0) maxNewRatio
    else math.min(maxNewRatio, math.max(1, math.ceil(longTermMb / free).toInt))
  }

  /** Eq 1: cache requirement m_c on heap `mhMb`, scaled by the observed hit
    * ratio. Also the cache half of the guiding model Q (Eq 8).
    */
  def cacheMb(st: Stats, mhMb: Double): Double =
    if (st.mcMb <= 0) 0.0
    else mhMb * math.min(st.mcMb / (math.max(st.h, 1e-9) * st.mhMb), 1.0 - RelM.delta)

  /** Eq 2: per-task shuffle requirement m_s, scaled by the spill fraction. */
  def shuffleMb(st: Stats, mhMb: Double): Double =
    if (st.msMb <= 0) 0.0
    else math.min(st.msMb / math.max(1e-9, 1.0 - st.s / st.p), (1.0 - RelM.delta) * mhMb)

  /** Run Eqs 1–4 for a candidate (n, m_h) given the profiled statistics.
    *
    * @param maxP hard concurrency bound (cores / containers per node)
    */
  def init(st: Stats, n: Int, mhMb: Double, maxP: Int): InitConf = {
    import RelM.delta
    val mc = cacheMb(st, mhMb)
    val ms = shuffleMb(st, mhMb)

    // Eq 4 — concurrency bounded by each of CPU, disk, and memory. The
    // paper divides node-level utilization by P because its profiles always
    // ran one container per node; a re-profile may use several, so we
    // normalize by the profiled node's n·P concurrent tasks.
    val profTasks = st.p * st.n
    val pCpu =
      if (st.cpuAvgPct < 0.5) Double.MaxValue
      else (1.0 / n) * ((1.0 - delta) * 100.0) / (st.cpuAvgPct / profTasks)
    val pDisk =
      if (st.diskAvgPct < 0.5) Double.MaxValue
      else (1.0 / n) * ((1.0 - delta) * 100.0) / (st.diskAvgPct / profTasks)
    val pMem = (1.0 - delta) * mhMb / math.max(1.0, st.muMb)
    val p = math.max(1, math.min(maxP, math.floor(List(pCpu, pDisk, pMem).min).toInt))

    // Eq 3 — Old must cover the long-term pools (code overhead + cache).
    val nr = newRatioFor(st.miMb + mc, mhMb)

    InitConf(mc, ms, p, nr)
  }
}
