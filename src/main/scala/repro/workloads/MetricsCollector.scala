package repro.workloads

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import java.util.concurrent.atomic.{AtomicLong, LongAdder}

/** Measured resource footprint of one real Spark workload execution — the
  * local-mode analogue of the paper's Thoth/PAT/JMX profiling substrate
  * (Sec 4.1). These are the quantities that calibrate `AppModel`s.
  */
final case class WorkloadFootprint(
    tasks: Long,
    totalTaskMs: Long,
    gcTimeMs: Long,
    shuffleWriteBytes: Long,
    spilledBytes: Long,
    peakExecutionMemory: Long,
) {
  def gcOverhead: Double = if (totalTaskMs == 0) 0.0 else gcTimeMs.toDouble / totalTaskMs
}

/** SparkListener that aggregates task metrics while a workload runs. */
final class MetricsCollector extends SparkListener {
  private val tasks = new LongAdder
  private val dur = new LongAdder
  private val gc = new LongAdder
  private val sw = new LongAdder
  private val spill = new LongAdder
  private val peak = new AtomicLong(0)

  override def onTaskEnd(te: SparkListenerTaskEnd): Unit = {
    val m = te.taskMetrics
    if (m != null) {
      tasks.increment()
      dur.add(m.executorRunTime)
      gc.add(m.jvmGCTime)
      sw.add(m.shuffleWriteMetrics.bytesWritten)
      spill.add(m.memoryBytesSpilled + m.diskBytesSpilled)
      peak.getAndUpdate(p => math.max(p, m.peakExecutionMemory))
    }
  }

  def footprint: WorkloadFootprint =
    WorkloadFootprint(tasks.sum(), dur.sum(), gc.sum(), sw.sum(), spill.sum(), peak.get())
}

object MetricsCollector {
  /** Run `body` with a collector attached and return (result, footprint)
    * once the listener bus has delivered every task of `body`'s jobs.
    */
  def profile[T](spark: SparkSession)(body: => T): (T, WorkloadFootprint) = {
    val mc = new MetricsCollector
    spark.sparkContext.addSparkListener(mc)
    try {
      val r = body
      // The DAGScheduler posts every TaskEnd before it completes the job, so
      // once `body` returns, draining the bus delivers all of its tasks.
      ListenerBusDrain(spark.sparkContext)
      (r, mc.footprint)
    } finally spark.sparkContext.removeSparkListener(mc)
  }
}
