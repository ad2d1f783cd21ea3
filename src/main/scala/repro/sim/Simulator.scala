package repro.sim

/** Raw measurements a profiled run yields (paper Sec 4.1: GC-profiler +
  * PAT + framework instrumentation timelines, reduced to the quantities the
  * Statistics Generator consumes).
  *
  * `muMeasuredMb` is the true per-task unmanaged memory — only observable
  * when the profile contains full-GC events; otherwise RelM must fall back
  * to `maxOldOccupancyMb` (paper Sec 4.1 "Importance of full GC events").
  */
final case class Profile(
    cpuAvgPct: Double,
    diskAvgPct: Double,
    miMb: Double,
    mcMb: Double,
    msMb: Double,
    muMeasuredMb: Double,
    maxOldOccupancyMb: Double,
    hasFullGc: Boolean,
    hitRatio: Double,
    spillFraction: Double,
)

/** Outcome of one (simulated) application execution. */
final case class RunResult(
    conf: MemoryConf,
    runtimeSec: Double,
    aborted: Boolean,
    failedContainers: Int,
    gcOverhead: Double,
    maxHeapUtil: Double,
    profile: Profile,
) {
  def runtimeMin: Double = runtimeSec / 60.0
  def safe: Boolean = !aborted && failedContainers == 0
}

/** The cluster execution simulator — the "stress test" every tuning policy
  * pays for (paper Sec 6: observation time dominates tuning overheads).
  *
  * Deterministic in (app, conf, seed); the seed reproduces the run-to-run
  * variability of Fig 5 / Figs 18-19. See DESIGN.md "Simulator design".
  */
final class Simulator(val hw: Hardware) {

  import FailureModel.Constants.{abortThreshold, retryPenalty}

  /** Per-JVM concurrency drag: co-located tasks contend on allocation paths,
    * locks, and memory bandwidth beyond what node-level core counts capture.
    */
  private val jvmConcurrencyDrag = 0.06

  /** Congestion multiplier for a resource at fractional utilization `u` of
    * its capacity: queueing below saturation, time-slicing beyond
    * (Obs 1/3: CPU and disk bottlenecks curb concurrency gains).
    */
  private def congestion(u: Double): Double =
    1.0 + 1.2 * math.pow(math.min(u, 1.0), 3) + 1.5 * math.max(0.0, u - 1.0)

  private def gauss(seed: Long): Double = {
    val r = new scala.util.Random(seed)
    r.nextGaussian()
  }

  def run(app: AppModel, conf: MemoryConf, seed: Long = 0L): RunResult = {
    val l  = GcModel.load(app, hw, conf)
    val gc = GcModel.gcOverhead(app, conf, l)
    val f  = FailureModel.assess(app, hw, conf, l, gc)

    val n = conf.containersPerNode
    val p = conf.taskConcurrency
    val slotsTotal = hw.nodes * n * p

    // Contention from all concurrently-running tasks on one node. Network
    // I/O does not occupy the node's disk streams.
    val cpuUtilRaw  = n * p * app.cpuCores / hw.coresPerNode
    val diskUtilRaw = n * p * (1.0 - app.cpuShare) * (1.0 - app.netShareOfIo) / hw.diskStreamsPerNode
    val cpuSlow  = congestion(cpuUtilRaw)
    val diskSlow = congestion(diskUtilRaw)
    val drag = 1.0 + jvmConcurrencyDrag * (p - 1)

    // Spill I/O: spilled bytes written then re-read for the external merge.
    val spillSec = 2.0 * l.spillFraction * app.shuffleNeedMb / 100.0

    val gcStretch = 1.0 / (1.0 - gc)
    val diskSecEff = app.diskSecPerTask * (1.0 - app.netShareOfIo) * diskSlow
    val netSec     = app.diskSecPerTask * app.netShareOfIo
    val tFull = (app.cpuSecPerTask * drag * cpuSlow + diskSecEff + netSec + spillSec) * gcStretch
    // Iteration/recompute tasks see the same contention + GC environment.
    val envStretch = (app.cpuShare * drag * cpuSlow +
      (1.0 - app.cpuShare) * ((1.0 - app.netShareOfIo) * diskSlow + app.netShareOfIo)) * gcStretch
    val tIter = app.iterSecPerTask * envStretch
    val tRec  = app.recomputeSecPerTask * envStretch

    val iterWork =
      if (app.iterations > 1)
        (app.iterations - 1).toDouble * app.numTasks *
          (tIter + (1.0 - l.hitRatio) * tRec)
      else 0.0
    val taskSeconds = app.numTasks * tFull + iterWork

    val key = conf.noiseKey
    val jitter = 1.0 + 0.05 * gauss(seed ^ app.name.hashCode ^ key)
    val baseRuntime = taskSeconds / slotsTotal * jitter

    // Run-to-run variability only perturbs configurations that carry real
    // risk — a comfortably safe configuration never loses containers.
    val pFail =
      if (f.pFail < 0.03) f.pFail
      else GcModel.clamp(f.pFail + 0.04 * gauss(seed * 31 + 7 ^ key))
    val containers = hw.nodes * n
    val failed = math.max(0, math.round(pFail * containers).toInt)
    val aborted = pFail > abortThreshold
    // Aborted jobs die partway through (after burning retries), they do not
    // run to completion — Table 5's "66 (aborted)" is a time-of-death.
    val runtime = baseRuntime * (1.0 + retryPenalty * pFail) * (if (aborted) 0.8 else 1.0)

    val profile = Profile(
      cpuAvgPct = math.min(1.0, cpuUtilRaw) * 100.0,
      diskAvgPct = math.min(1.0, diskUtilRaw) * 100.0,
      miMb = app.codeOverheadMb * (1.0 + 0.01 * gauss(seed + 11)),
      mcMb = l.cacheUsedMb,
      msMb = l.chunkMb,
      muMeasuredMb = app.taskUnmanagedMb * (1.0 + 0.005 * gauss(seed + 13)),
      maxOldOccupancyMb = math.min(l.oldDemandMb, conf.oldMb),
      hasFullGc = GcModel.hasFullGc(app, conf, l),
      hitRatio = l.hitRatio,
      spillFraction = l.spillFraction,
    )

    RunResult(
      conf = conf,
      runtimeSec = runtime, aborted = aborted, failedContainers = failed,
      gcOverhead = gc,
      maxHeapUtil = math.min(1.0, l.heapDemandMb / conf.heapMb),
      profile = profile,
    )
  }
}
