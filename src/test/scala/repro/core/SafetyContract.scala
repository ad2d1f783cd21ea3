package repro.core

import repro.sim.{Hardware, MemoryConf}

/** RelM's safety contract for one arbitrated plan: long-term demand fits Old
  * (Algorithm 1, line 4) and beside the framework's reserved region, concurrency
  * within the core bound, NewRatio in 1..9 (Sec 6.1), shuffle within half the
  * per-task Eden share (line 11), and knob settings that leave δ of the
  * unified pool free. Returns the clauses `a` breaks; empty means safe.
  */
object SafetyContract {

  private val eps = 1e-6

  def violations(st: Stats, hw: Hardware, a: Arbitrated): Seq[String] = {
    val demand = st.miMb + a.p * st.muMb + a.mcMb
    val old = MemoryConf.oldMb(a.mhMb, a.nr)
    val fit = a.mhMb - MemoryConf.reservedMb
    val msCap = 0.5 * MemoryConf.edenMb(a.mhMb, a.nr) / a.p
    val c = RelM.toConf(hw, a)
    Seq(
      (demand <= old + eps) -> f"demand $demand%.1fMB exceeds Old $old%.1fMB",
      (demand <= fit + eps) -> f"demand $demand%.1fMB exceeds heap minus reserved $fit%.1fMB",
      (a.p >= 1 && a.p <= hw.maxConcurrency(a.n)) -> s"p=${a.p} outside 1..${hw.maxConcurrency(a.n)}",
      (a.nr >= 1 && a.nr <= Initializer.maxNewRatio) -> s"NR=${a.nr} outside 1..${Initializer.maxNewRatio}",
      (a.mcMb >= 0 && a.msMb >= 0) -> s"negative pool: mc=${a.mcMb} ms=${a.msMb}",
      (a.msMb <= msCap + eps) -> f"ms ${a.msMb}%.1fMB exceeds half the per-task Eden $msCap%.1fMB",
      (c.cacheCap >= 0 && c.shuffleCap >= 0) -> s"negative caps in $c",
      (c.cacheCap + c.shuffleCap <= 1.0 - RelM.delta + eps) -> s"caps above 1-δ in $c",
    ).collect { case (false, clause) => s"n=${a.n}: $clause" }
  }
}
