package repro.opt

import repro.sim.{AppModel, MemoryConf, RunResult, Simulator}
import scala.collection.mutable

/** One observed (configuration, outcome, objective) triple. */
final case class Observation(conf: MemoryConf, result: RunResult, objective: Double)

/** Outcome of a tuning session: the best observation and every probe. */
final case class TuningTrace(best: Observation, history: Vector[Observation]) {
  def recommended: MemoryConf = best.conf

  /** Distinct stress-test runs the policy paid for — the dominant tuning
    * cost (paper Sec 6.2/6.3).
    */
  def iterations: Int = history.size
}

/** Shared stress-testing environment for the black-box policies: runs the
  * simulator, memoizes repeated probes, and applies the paper's objective
  * for aborted runs (twice the worst runtime observed so far — Sec 6.1,
  * "this heuristic ensures that the failing region is ranked low").
  */
final class TuningEnv(app: AppModel, sim: Simulator, seed: Long = 0L) {

  private val cache = mutable.LinkedHashMap.empty[MemoryConf, Observation]
  private var worst = 0.0

  def evaluate(conf: MemoryConf): Observation =
    cache.getOrElseUpdate(conf, {
      val r = sim.run(app, conf, seed + cache.size)
      val obj =
        if (r.aborted) 2.0 * math.max(worst, r.runtimeSec)
        else r.runtimeSec
      worst = math.max(worst, obj)
      Observation(conf, r, obj)
    })

  def history: Vector[Observation] = cache.values.toVector
  def iterations: Int = cache.size

  /** The session so far; its best is the lowest-objective run that did not
    * abort, or the lowest-objective run when every probe aborted.
    */
  def trace: TuningTrace = {
    val best = cache.values.filterNot(_.result.aborted).minByOption(_.objective)
      .getOrElse(cache.values.minBy(_.objective))
    TuningTrace(best, history)
  }
}
