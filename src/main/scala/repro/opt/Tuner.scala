package repro.opt

import repro.sim.{AppModel, MemoryConf, RunResult, Simulator}
import scala.collection.mutable

/** One observed run and its objective. */
final case class Observation(result: RunResult, objective: Double) {
  def conf: MemoryConf = result.conf
}

/** Outcome of a tuning session: the best observation and every probe. */
final case class TuningTrace(best: Observation, history: Vector[Observation]) {
  def recommended: MemoryConf = best.conf

  /** Distinct stress-test runs the policy paid for — the dominant tuning
    * cost (paper Sec 6.2/6.3).
    */
  def iterations: Int = history.size
}

/** Shared stress-testing environment for the black-box policies: runs the
  * simulator, memoizes repeated probes, and scores an aborted run at twice
  * the worst objective so far, its own runtime included. Sec 6.1 says twice
  * the worst *runtime*; an objective includes earlier aborts' penalties, so
  * k aborts in a row score at least 2^k times it (ROADMAP item 1).
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
      Observation(r, obj)
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
