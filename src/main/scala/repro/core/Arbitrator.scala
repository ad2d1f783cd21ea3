package repro.core

import repro.sim.MemoryConf

/** Final arbitrated configuration for one candidate container size.
  *
  * @param utility  U = (M_i + m_c + p·(M_u + m_s)) / m_h  (Algorithm 1, l.13)
  * @param iterations main-loop iterations taken (Fig 13 reports 9 for the
  *                   PageRank example)
  */
final case class Arbitrated(
    n: Int,
    mhMb: Double,
    p: Int,
    mcMb: Double,
    msMb: Double,
    nr: Int,
    utility: Double,
    iterations: Int,
)

/** Arbitrator (paper Algorithm 1): trims the Initializer's independent
  * optima until the combined long-term demand fits Old, by round-robining
  * three actions — I. drop concurrency, II. shrink cache (re-deriving the GC
  * pools via Eq 3), III. grow Old by M_u. Then sizes shuffle to half of the
  * per-task Eden share (Obs 7) and scores the configuration by heap utility.
  *
  * Action III is realized on the integer NewRatio axis: step NR to the
  * smallest value whose Old reaches min(m_o + M_u, current demand), bounded
  * by (1−δ)·m_h. This reading reproduces the paper's worked example exactly
  * (9 iterations → p=2, cache≈1.5 GB, NR=3; see ArbitratorSpec).
  */
object Arbitrator {

  private val maxIterations = 500

  /** Returns None when even one task cannot run within heap (line 1-3), or
    * when no action can establish safety (degenerate stall).
    */
  def arbitrate(st: Stats, n: Int, mhMb: Double, init: InitConf): Option[Arbitrated] = {
    import RelM.delta
    // Line 1: bare minimum — one task's memory must fit.
    if (st.miMb + st.muMb > (1.0 - delta) * mhMb) return None

    // Physical feasibility floor: on small heaps Old can reach ~0.9·m_h, so
    // "demand ≤ m_o" alone would admit plans that cannot coexist with the
    // framework's reserved region. The pools must also fit beside it.
    val fitCapMb = mhMb - MemoryConf.reservedMb

    var p  = init.p
    var mc = init.mcMb
    var nr = init.nr
    var ms = init.msMb
    var iter = 0
    var action = 0 // round-robin cursor: 0=I, 1=II, 2=III
    var stalled = 0

    def demand: Double = st.miMb + p * st.muMb + mc
    def mo: Double = MemoryConf.oldMb(mhMb, nr)
    def unsafe: Boolean = demand > mo || demand > fitCapMb

    while (unsafe && iter < maxIterations && stalled < 3) {
      val acted = (action % 3) match {
        case 0 => // I. decrease concurrency
          if (p > 1) { p -= 1; true } else false
        case 1 => // II. shrink cache by M_u, re-fit GC pools (Eq 3)
          if (mc - st.muMb > 0) {
            mc -= st.muMb
            nr = Initializer.newRatioFor(st.miMb + mc, mhMb)
            true
          } else false
        case 2 => // III. grow Old by M_u (toward demand, within (1−δ)·m_h)
          val target = math.min(mo + st.muMb, demand)
          val candidates = ((nr + 1) to Initializer.maxNewRatio)
            .filter(r => MemoryConf.oldMb(mhMb, r) <= (1.0 - delta) * mhMb)
          val fit = candidates.find(r => MemoryConf.oldMb(mhMb, r) >= target)
            .orElse(candidates.lastOption.filter(r => MemoryConf.oldMb(mhMb, r) > mo))
          fit match {
            case Some(r) => nr = r; true
            case None    => false
          }
      }
      action += 1
      if (acted) { iter += 1; stalled = 0 } else stalled += 1
    }

    if (unsafe) return None // no safe configuration at this size

    // Line 11: shuffle capped at half the per-task Eden share (Obs 7).
    ms = math.min(ms, 0.5 * MemoryConf.edenMb(mhMb, nr) / p)

    // Line 13: utility = productive fraction of heap.
    val u = (st.miMb + mc + p * (st.muMb + ms)) / mhMb
    Some(Arbitrated(n, mhMb, p, mc, ms, nr, u, iter))
  }
}
