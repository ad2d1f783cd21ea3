package repro.core

import repro.sim.MemoryConf

/** The guiding white-box model Q (paper Eq 8, Sec 5.2): maps a candidate
  * configuration + profiled statistics to three derived metrics that
  * separate desirable regions of the space from expensive ones.
  *
  *  - q1: expected heap occupancy — low ⇒ waste, >1 ⇒ unsafe.
  *  - q2: long-term memory efficiency — high ⇒ disk re-reads or Old-pool
  *        GC storms (Obs 5).
  *  - q3: shuffle memory efficiency — high ⇒ spill-triggered full GCs
  *        (Obs 7).
  */
object QModel {

  final case class Q(q1: Double, q2: Double, q3: Double) {
    /** q1..q3 clipped to their informative range [0, 3] and scaled to
      * [0, 1]: the form GBO's features and DDPG's state use.
      */
    def scaled: Array[Double] = Array(q1, q2, q3).map(v => math.min(3.0, math.max(0.0, v)) / 3.0)
  }

  def derive(st: Stats, c: MemoryConf): Q = {
    val mh   = c.heapMb
    val mcX  = c.cacheCap * mh            // configured cache allocation
    val msX  = c.shuffleCap * mh / c.taskConcurrency // configured per-task shuffle
    val mcRq = Initializer.cacheMb(st, mh)  // Eq 1 requirement
    val msRq = Initializer.shuffleMb(st, mh) // Eq 2 requirement

    val q1 = (st.miMb + math.min(mcX, mcRq) +
      c.taskConcurrency * (st.muMb + math.min(msX, msRq))) / mh

    val longTermAvail = math.max(1.0, math.min(c.oldMb, if (mcX > 0) mcX else c.oldMb))
    val q2 = (st.miMb + mcRq) / longTermAvail

    val q3 = c.taskConcurrency * math.min(msX, msRq) / math.max(1.0, 0.5 * c.edenMb)

    Q(q1, q2, q3)
  }
}
