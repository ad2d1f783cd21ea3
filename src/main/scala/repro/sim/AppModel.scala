package repro.sim

/** Resource-footprint model of one benchmark application (paper Table 2).
  *
  * These parameters are the simulator analogue of "workflow + input data":
  * they encode the computational model (map/reduce, ML, graph, SQL) and the
  * physical design (partition size) exactly along the dimensions the paper's
  * empirical study shows matter. Values are calibrated to Cluster A's
  * defaults so the Table-5/6 statistics land near the paper's.
  *
  * All memory in MB, all times in seconds.
  *
  * @param numTasks          tasks in one pass over the input (input size / partition size)
  * @param iterations        passes over the cached data (1 = batch app)
  * @param cpuSecPerTask     pure compute time of one first-pass task
  * @param diskSecPerTask    I/O (disk + network) time of one first-pass task
  * @param taskUnmanagedMb   M_u ground truth: deserialized partition + buffers
  *                          living OUTSIDE the managed cache/shuffle pools
  * @param shuffleNeedMb     per-task shuffle working set (sort/aggregation)
  * @param cacheMbTotal      bytes the app asks to persist across the cluster
  * @param codeOverheadMb    M_i ground truth: framework/code objects
  * @param allocMbPerSec     short-lived allocation rate per task (young-GC pressure)
  * @param netBufMbPerTask   native (off-heap) buffers per task; reclaimed only
  *                          by GC → drives RSS growth (Fig 11)
  * @param iterSecPerTask    per-iteration task time when its partition is cached
  * @param recomputeSecPerTask extra time to recompute an evicted partition
  * @param cpuCoresPerTask   cores one task keeps busy including GC/JVM helper
  *                          threads (≤0 ⇒ derive from the cpu/disk time split);
  *                          lets profiles reproduce the paper's CPU% readings
  * @param netShareOfIo      fraction of `diskSecPerTask` that is network (not
  *                          counted against the node's disk streams — PAT
  *                          reads ~2% disk for the network-bound PageRank)
  */
final case class AppModel(
    name: String,
    numTasks: Int,
    iterations: Int,
    cpuSecPerTask: Double,
    diskSecPerTask: Double,
    taskUnmanagedMb: Double,
    shuffleNeedMb: Double,
    cacheMbTotal: Double,
    codeOverheadMb: Double,
    allocMbPerSec: Double,
    netBufMbPerTask: Double,
    iterSecPerTask: Double = 0.0,
    recomputeSecPerTask: Double = 0.0,
    cpuCoresPerTask: Double = -1.0,
    netShareOfIo: Double = 0.0,
) {
  /** Whether the unified pool is predominantly cache (paper Sec 6.1 uses the
    * dominant pool as the tuned dimension, minor pool pinned to 0.1).
    */
  def usesCache: Boolean = cacheMbTotal > 0

  /** Fraction of a first-pass task's time that is CPU (vs I/O). */
  def cpuShare: Double = cpuSecPerTask / (cpuSecPerTask + diskSecPerTask)

  /** Cores a running task occupies (for utilization/congestion). */
  def cpuCores: Double = if (cpuCoresPerTask > 0) cpuCoresPerTask else cpuShare
}

/** The paper's test suite (Table 2) + TPC-H (Sec 6.4, Cluster B). */
object AppModel {
  /** Map+Reduce, 50 GB, 128 MB partitions, no cache, light shuffle. */
  val wordCount: AppModel = AppModel(
    name = "WordCount", numTasks = 400, iterations = 1,
    cpuSecPerTask = 12, diskSecPerTask = 2.5,
    taskUnmanagedMb = 210, shuffleNeedMb = 48, cacheMbTotal = 0,
    codeOverheadMb = 90, allocMbPerSec = 15, netBufMbPerTask = 40)

  /** Map+Reduce, 30 GB, fat 512 MB partitions streamed through a
    * shuffle-dominated external sort (the in-memory sort buffers are
    * *managed* shuffle memory; unmanaged memory is just stream buffers).
    */
  val sortByKey: AppModel = AppModel(
    name = "SortByKey", numTasks = 60, iterations = 1,
    cpuSecPerTask = 25, diskSecPerTask = 10,
    taskUnmanagedMb = 120, shuffleNeedMb = 1600, cacheMbTotal = 0,
    codeOverheadMb = 90, allocMbPerSec = 25, netBufMbPerTask = 60,
    netShareOfIo = 0.3)

  /** ML, 100M samples, cache-hungry (never fully fits on Cluster A). */
  val kMeans: AppModel = AppModel(
    name = "K-means", numTasks = 240, iterations = 6,
    cpuSecPerTask = 20, diskSecPerTask = 2,
    taskUnmanagedMb = 230, shuffleNeedMb = 8, cacheMbTotal = 28000,
    codeOverheadMb = 100, allocMbPerSec = 50, netBufMbPerTask = 30,
    iterSecPerTask = 3, recomputeSecPerTask = 40, cpuCoresPerTask = 1.2)

  /** ML, small 32 MB partitions: tiny task memory, cache fits at ~0.5 heap. */
  val svm: AppModel = AppModel(
    name = "SVM", numTasks = 300, iterations = 5,
    cpuSecPerTask = 8, diskSecPerTask = 1,
    taskUnmanagedMb = 45, shuffleNeedMb = 6, cacheMbTotal = 17000,
    codeOverheadMb = 100, allocMbPerSec = 20, netBufMbPerTask = 20,
    iterSecPerTask = 3, recomputeSecPerTask = 6)

  /** Graph (LiveJournal): network-heavy coalesce (disk util ~2% like the
    * paper's Table 6), huge task + cache memory — the paper's running
    * failure example (Table 5/6). cpuCoresPerTask=1.4 reproduces the
    * profiled 35% CPU at the default concurrency of 2 on 8 cores.
    */
  val pageRank: AppModel = AppModel(
    name = "PageRank", numTasks = 64, iterations = 10,
    cpuSecPerTask = 24, diskSecPerTask = 36,
    taskUnmanagedMb = 770, shuffleNeedMb = 0, cacheMbTotal = 61000,
    codeOverheadMb = 115, allocMbPerSec = 60, netBufMbPerTask = 500,
    iterSecPerTask = 6, recomputeSecPerTask = 70,
    cpuCoresPerTask = 1.4, netShareOfIo = 0.95)

  /** TPC-H SF50 workflow (22 queries back-to-back), evaluated on Cluster B
    * (paper Fig 21): shuffle-heavy SQL, no long-lived cache.
    */
  val tpch: AppModel = AppModel(
    name = "TPC-H", numTasks = 500, iterations = 1,
    cpuSecPerTask = 30, diskSecPerTask = 30,
    taskUnmanagedMb = 600, shuffleNeedMb = 900, cacheMbTotal = 0,
    codeOverheadMb = 150, allocMbPerSec = 40, netBufMbPerTask = 100,
    cpuCoresPerTask = 1.3, netShareOfIo = 0.5)

  /** The five Cluster-A evaluation apps, in the paper's order. */
  val clusterASuite: Seq[AppModel] = Seq(wordCount, sortByKey, kMeans, svm, pageRank)

  val all: Seq[AppModel] = clusterASuite :+ tpch
}
