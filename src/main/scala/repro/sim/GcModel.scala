package repro.sim

/** ParallelGC behaviour model (paper Secs 2.1 and 3.4).
  *
  * The pool-size formulas live on [[MemoryConf]]; this object derives the
  * memory *demands* a configuration puts on the pools and the resulting GC
  * overhead fraction (share of task time spent in stop-the-world pauses).
  * Each term is tied to the Section-3 observation it reproduces.
  */
object GcModel {

  /** Model constants. Calibrated once against the paper's Section-3 figures
    * (see DESIGN.md); every test and bench reads them from here.
    */
  object Constants {
    /** Fraction of task-unmanaged objects that live long enough to tenure
      * into Old between full GCs (profiling at full-GC boundaries sees them
      * — paper Sec 4.1).
      */
    val tenureFrac: Double = 0.35
    /** Baseline GC overhead of a healthy configuration. */
    val baseOverhead: Double = 0.03
    /** Young-collection cost: g += factor * p^pExp * allocRate / eden
      * (Obs 6 / Fig 9: small Eden ⇒ frequent young GCs; super-linear in p
      * because concurrent allocators also lengthen each pause).
      */
    val youngFactor: Double = 1.0
    val youngConcurrencyExp: Double = 1.3
    val youngCap: Double = 0.5
    /** Old-overflow (premature promotion / full-GC storm) term (Obs 5). */
    val oldSlope: Double = 0.3
    val oldBase: Double = 0.1
    val oldCap: Double = 0.55
    /** Spill-chunk vs Eden term (Obs 7 / Fig 10): chunks beyond 0.5*eden/p
      * force a full GC per spill.
      */
    val spillSlope: Double = 0.3
    val spillBase: Double = 0.15
    val spillCap: Double = 0.5
    /** Near-full-heap collection thrash. */
    val pressureSlope: Double = 1.5
    val pressureStart: Double = 0.9
    val pressureCap: Double = 0.4
    /** Total overhead cap — tasks never make zero progress. */
    val totalCap: Double = 0.85
    /** Old-occupancy fraction beyond which full GCs appear in a profile. */
    val fullGcOldThreshold: Double = 0.85
    /** Strict-heap-demand fraction beyond which full GCs appear. */
    val fullGcHeapThreshold: Double = 0.75
  }

  import Constants._

  /** `x` limited to [lo, hi]; the default [0, 1] bounds probabilities. */
  private[sim] def clamp(x: Double, lo: Double = 0.0, hi: Double = 1.0): Double =
    math.min(hi, math.max(lo, x))

  /** Memory demands of (app, conf) on one container — the state everything
    * else (GC overhead, failures, runtime, profile) is derived from.
    *
    * @param cacheReqMb  per-container cache requirement of the app
    * @param cacheUsedMb cache actually storable under the configuration
    * @param hitRatio    H — fraction of requested partitions served from cache
    * @param chunkMb     per-task in-memory shuffle buffer (spill granularity)
    * @param spillFraction S — fraction of shuffle data spilled to disk
    * @param heapDemandMb  peak concurrent heap demand (managed + unmanaged)
    * @param oldDemandMb   long-lived bytes that must fit in Old (Obs 5)
    * @param unmanagedMb   code overhead + concurrent task-unmanaged objects
    * @param headroomMb    heap left for unmanaged objects after the reserved
    *                      region and the in-use managed pools
    * @param usableMb      heap minus a survivor space (fragmentation slack)
    * @param strictUsableMb usable minus Spark's reserved region
    */
  final case class Load(
      cacheReqMb: Double,
      cacheUsedMb: Double,
      hitRatio: Double,
      chunkMb: Double,
      spillFraction: Double,
      heapDemandMb: Double,
      oldDemandMb: Double,
      unmanagedMb: Double,
      headroomMb: Double,
      usableMb: Double,
      strictUsableMb: Double,
  )

  /** Derive the pool demands of one container (Spark-unified sharing:
    * execution memory is served first, storage may use the remainder of the
    * unified pool — storage is evictable, execution is not).
    */
  def load(app: AppModel, hw: Hardware, c: MemoryConf): Load = {
    val unified    = c.unifiedMb
    val containers = hw.nodes * c.containersPerNode
    val p          = c.taskConcurrency

    val shuffleNeedTotal = app.shuffleNeedMb * p
    val shuffleUsed      = math.min(shuffleNeedTotal, unified)
    val chunk            = if (p == 0) 0.0 else shuffleUsed / p
    val spillFraction =
      if (app.shuffleNeedMb <= 0) 0.0
      else clamp(1.0 - chunk / app.shuffleNeedMb)

    val cacheReq  = if (app.usesCache) app.cacheMbTotal / containers else 0.0
    val cacheUsed = math.min(cacheReq, math.max(0.0, unified - shuffleUsed))
    val hitRatio  = if (cacheReq <= 0) 1.0 else cacheUsed / cacheReq

    val unmanaged  = app.codeOverheadMb + p * app.taskUnmanagedMb
    val heapDemand = unmanaged + cacheUsed + shuffleUsed
    val oldDemand  = app.codeOverheadMb + cacheUsed + tenureFrac * p * app.taskUnmanagedMb
    val usable       = math.max(1.0, c.heapMb - c.survivorMb)
    val strictUsable = math.max(1.0, usable - MemoryConf.reservedMb)
    val headroom = math.max(1.0, strictUsable - cacheUsed - shuffleUsed)

    Load(cacheReq, cacheUsed, hitRatio, chunk, spillFraction,
         heapDemand, oldDemand, unmanaged, headroom, usable, strictUsable)
  }

  /** GC overhead fraction of task time (Figs 7c, 8, 9, 10). */
  def gcOverhead(app: AppModel, c: MemoryConf, l: Load): Double = {
    val p    = c.taskConcurrency
    val eden = math.max(1.0, c.edenMb)

    val young = clamp(
      youngFactor * math.pow(p, youngConcurrencyExp) * app.allocMbPerSec / eden,
      0.0, youngCap)

    val oldTerm =
      if (l.oldDemandMb > c.oldMb)
        clamp(oldSlope * (l.oldDemandMb - c.oldMb) / c.oldMb + oldBase, 0.0, oldCap)
      else 0.0

    val spillTerm = {
      val budget = 0.5 * eden / p
      if (l.chunkMb > budget && app.shuffleNeedMb > 0)
        clamp(spillSlope * (l.chunkMb / budget - 1.0) + spillBase, 0.0, spillCap)
      else 0.0
    }

    val occ = l.heapDemandMb / l.usableMb
    val pressure =
      if (occ > pressureStart) clamp(pressureSlope * (occ - pressureStart), 0.0, pressureCap)
      else 0.0

    clamp(baseOverhead + young + oldTerm + spillTerm + pressure, 0.0, totalCap)
  }

  /** Whether a profile of this run would contain full-GC events — the
    * prerequisite for RelM's M_u estimation (paper Sec 4.1 / Fig 22).
    * Full GCs are triggered by a filling Old pool, by overall heap pressure,
    * or by every over-Eden-sized spill (Obs 7 mechanism).
    */
  def hasFullGc(app: AppModel, c: MemoryConf, l: Load): Boolean =
    l.oldDemandMb > fullGcOldThreshold * c.oldMb ||
      l.heapDemandMb > fullGcHeapThreshold * l.strictUsableMb ||
      (app.shuffleNeedMb > 0 && l.chunkMb > 0.5 * c.edenMb / c.taskConcurrency)
}
