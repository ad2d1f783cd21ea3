package repro.sim

/** The Table-1 knob vector — the configuration space every tuner explores.
  *
  * @param containersPerNode containers the resource manager carves per node
  * @param heapMb            heap of one container (maxHeapPerNode / n)
  * @param taskConcurrency   execution slots per container (paper: P)
  * @param cacheCap          Cache Capacity as a fraction of heap
  * @param shuffleCap        Shuffle Capacity as a fraction of heap
  * @param newRatio          ParallelGC NewRatio = Old/Young capacity ratio
  */
final case class MemoryConf(
    containersPerNode: Int,
    heapMb: Double,
    taskConcurrency: Int,
    cacheCap: Double,
    shuffleCap: Double,
    newRatio: Int,
) {
  require(containersPerNode >= 1, s"containersPerNode=$containersPerNode")
  require(taskConcurrency >= 1, s"taskConcurrency=$taskConcurrency")
  require(newRatio >= 1, s"newRatio=$newRatio")
  require(cacheCap >= 0 && shuffleCap >= 0, s"caps=($cacheCap,$shuffleCap)")

  def oldMb: Double = MemoryConf.oldMb(heapMb, newRatio)

  /** Young-generation capacity. */
  def youngMb: Double = heapMb / (newRatio + 1)

  def edenMb: Double = MemoryConf.edenMb(heapMb, newRatio)

  /** One survivor space (two exist; one is always empty). */
  def survivorMb: Double = youngMb / MemoryConf.survivorRatio

  /** Unified cache+shuffle pool, Spark-style: fraction of (heap − reserved). */
  def unifiedMb: Double = (cacheCap + shuffleCap) * math.max(0.0, heapMb - MemoryConf.reservedMb)

  /** The key `Simulator.run` seeds its jitter from: the bits of the
    * case-class `hashCode` this record had while SurvivorRatio was its
    * seventh field, so recorded simulated runtimes do not rest on its shape.
    */
  def noiseKey: Int = {
    import scala.util.hashing.MurmurHash3.{finalizeHash, mix, productSeed}
    var h = mix(productSeed, "MemoryConf".hashCode)
    h = mix(mix(mix(h, containersPerNode), heapMb.##), taskConcurrency)
    h = mix(mix(mix(h, cacheCap.##), shuffleCap.##), newRatio)
    finalizeHash(mix(h, MemoryConf.survivorRatio), 7)
  }

  override def toString: String =
    f"MemoryConf(n=$containersPerNode heap=${heapMb}%.0fMB p=$taskConcurrency " +
      f"cache=$cacheCap%.2f shuffle=$shuffleCap%.2f NR=$newRatio SR=${MemoryConf.survivorRatio})"
}

object MemoryConf {
  /** ParallelGC's SurvivorRatio: not a knob, the paper keeps the default (Sec 6.1). */
  val survivorRatio: Int = 8

  /** Heap Spark reserves; `spark.memory.fraction` is a fraction of the rest. */
  val reservedMb: Double = 300.0

  /** Old-generation capacity: m_o = m_h * NR/(NR+1)  (paper Eq 3). */
  def oldMb(heapMb: Double, newRatio: Int): Double = heapMb * newRatio / (newRatio + 1)

  /** Eden capacity: m_e = m_h * 1/(NR+1) * (SR-2)/SR  (paper Eq 3). */
  def edenMb(heapMb: Double, newRatio: Int): Double =
    heapMb / (newRatio + 1) * (survivorRatio - 2) / survivorRatio

  /** Build a configuration for `n` containers per node on `hw`. */
  def of(hw: Hardware, n: Int, p: Int, cacheCap: Double, shuffleCap: Double, newRatio: Int): MemoryConf =
    MemoryConf(n, hw.heapMb(n), p, cacheCap, shuffleCap, newRatio)

  /** Amazon EMR MaxResourceAllocation + framework defaults (paper Table 4):
    * one fat container per node, all heap, Task Concurrency 2, unified
    * cache+shuffle pool 0.6, NewRatio 2, SurvivorRatio 8. The unified pool is
    * given entirely to the app's dominant use (Spark's unified manager lets
    * either side take the whole fraction), which we encode as cacheCap=0.6 —
    * the simulator's execution-first sharing hands it to shuffle for apps
    * that do not cache.
    */
  def default(hw: Hardware): MemoryConf = of(hw, n = 1, p = 2, cacheCap = 0.6, shuffleCap = 0.0, newRatio = 2)
}
