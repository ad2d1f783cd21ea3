package repro.opt

import repro.sim.MemoryConf

/** Exhaustive grid search (paper Sec 6.1): each knob domain discretized to 4
  * values, Task Concurrency bounded by cores/containers — 192 points on
  * Cluster A, matching the paper's count. Used only as the quality baseline.
  * Its literal 0.6 cap is not `ConfigSpace.capGrid`'s `12 * 0.05`, so 48 of
  * the 192 points per app lie off the grid BO, GBO and DDPG probe (ROADMAP
  * item 1).
  */
object Exhaustive {

  /** 4-value spread over 1..max (deduplicated, so small ranges shrink). */
  def spread4(max: Int): Seq[Int] =
    if (max <= 4) 1 to max
    else Seq(1, (max + 2) / 3, (2 * max + 1) / 3, max).distinct

  def grid(space: ConfigSpace): Vector[MemoryConf] = {
    val caps = Seq(0.2, 0.4, 0.6, 0.8)
    val nrs = Seq(1, 3, 5, 7)
    (for {
      n <- space.hw.containerChoices
      p <- spread4(space.hw.maxConcurrency(n))
      cap <- caps
      nr <- nrs
    } yield space.conf(n, p, cap, nr)).toVector
  }

  def tune(space: ConfigSpace, env: TuningEnv): TuningTrace = {
    grid(space).foreach(env.evaluate)
    env.trace
  }
}
