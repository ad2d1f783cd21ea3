package repro.sim

/** Container-failure model (paper Sec 3.1 "Failure cases", Figs 5 and 11).
  *
  * Failure mechanisms from the paper:
  * (a) out-of-memory errors creating heap objects — when the unmanaged
  *     memory (deserialized inputs, fetch buffers) outgrows the heap left
  *     beside the managed pools, when a spill buffer outgrows Eden, or when
  *     long-lived data overflows Old (promotion failure);
  * (b) the resource manager killing containers whose *physical* memory
  *     (touched heap + JVM overhead + native network buffers) exceeds the
  *     preset cap; native buffers are reclaimed only when their on-heap
  *     references are collected, so large Edens (infrequent GCs) grow RSS
  *     faster (Fig 11);
  * (c) GC-stalled containers failing heartbeats at extreme overheads.
  * Container failures trigger task retries; if retries exhaust the budget
  * the whole application aborts.
  */
object FailureModel {

  object Constants {
    /** Overall overcommit OOM sharpness (demand vs usable heap). */
    val oomSlope: Double = 5.0
    /** Unmanaged-squeeze slack and slope (unmanaged vs headroom). */
    val squeezeSlack: Double = 1.45
    val squeezeSlope: Double = 2.0
    /** Spill-chunk-vs-Eden OOM: slack and slope (huge contiguous sort
      * buffers trigger promotion-failure OOMs).
      */
    val chunkSlack: Double = 1.2
    val chunkSlope: Double = 1.5
    /** Old-overflow slack before promotion failures start, and slope. */
    val promoSlack: Double = 0.10
    val promoSlope: Double = 1.2
    /** RSS-kill sharpness beyond the physical cap. */
    val killSlope: Double = 8.0
    /** Touched-heap model: physical = min(1.08*heap, 1.2*demand) + offheap. */
    val physHeapFactor: Double = 1.08
    val physTouchFactor: Double = 1.2
    /** GC-stall kills when overhead exceeds this. */
    val gcStallStart: Double = 0.65
    val gcStallSlope: Double = 1.2
    /** Failure probability beyond which task retries exhaust → abort. */
    val abortThreshold: Double = 0.35
    /** Runtime inflation per unit failure probability (retries). */
    val retryPenalty: Double = 0.6
    /** Off-heap buffer accumulation scale: netBuf * p * eden/edenScale. */
    val edenScaleMb: Double = 1000.0
  }

  import Constants._
  import GcModel.clamp

  /** Failure assessment of one configuration. `pFail` is the per-container
    * probability of dying at least once during the run.
    */
  final case class Failure(pOom: Double, pKill: Double, pGcStall: Double) {
    def pFail: Double = clamp(pOom + pKill + pGcStall)
  }

  /** Peak physical (resident-set) memory of one container: heap actually
    * touched, JVM metaspace/thread overhead, plus un-reclaimed native
    * buffers whose volume scales with Eden (collection infrequency, Fig 11).
    */
  def physicalMb(app: AppModel, c: MemoryConf, l: GcModel.Load): Double = {
    val touchedHeap = math.min(physHeapFactor * c.heapMb, physTouchFactor * l.heapDemandMb)
    val offheap     = app.netBufMbPerTask * c.taskConcurrency * (c.edenMb / edenScaleMb)
    touchedHeap + offheap
  }

  def assess(app: AppModel, hw: Hardware, c: MemoryConf, l: GcModel.Load, gc: Double): Failure = {
    val oomHeap = clamp((l.heapDemandMb / l.usableMb - 1.0) * oomSlope)
    val oomSqueeze = clamp((l.unmanagedMb / l.headroomMb - squeezeSlack) * squeezeSlope)
    val oomChunk =
      if (app.shuffleNeedMb > 0)
        clamp((l.chunkMb / c.edenMb - chunkSlack) * chunkSlope)
      else 0.0
    val oomPromo = {
      val excess = (l.oldDemandMb - c.oldMb) / c.oldMb
      if (excess > promoSlack) clamp((excess - promoSlack) * promoSlope) else 0.0
    }
    val pOom = clamp(oomHeap + oomSqueeze + oomChunk + oomPromo)

    val phys  = physicalMb(app, c, l)
    val cap   = hw.containerPhysCapMb(c.containersPerNode)
    val pKill = clamp((phys / cap - 1.0) * killSlope)

    val pGcStall = if (gc > gcStallStart) clamp((gc - gcStallStart) * gcStallSlope) else 0.0

    Failure(pOom, pKill, pGcStall)
  }
}
