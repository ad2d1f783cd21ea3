package perfbench

import scala.collection.mutable

/** One operation of a pass: one application tuned by every policy, a
  * profiled Spark job with its oracle check, or one oracle-checked TPC-H
  * query.
  *
  * @param signature the op's output in a canonical text form; a pass whose
  *                  signature differs from the run's first pass is a failure
  * @param parts     time of each named part of the op, in ms
  */
final case class Op(name: String, ms: Double, ok: Boolean, signature: String, error: String = "",
                    parts: Map[String, Double] = Map.empty)

/** Outcome of one pass over a workload's ops.
  *
  * @param wallMs    elapsed time of the pass, minus the time spent replaying
  *                  layer calls for the trace
  * @param counts    per-pass counts that repeat from pass to pass once
  *                  warm-up is over
  * @param footprint per-pass Spark task measurements (times vary by pass)
  * @param inputRows row counts of the inputs the pass read
  */
final case class PassResult(
    traced: Boolean,
    wallMs: Double,
    ops: Seq[Op],
    counts: Map[String, Double],
    inputRows: Map[String, Long],
    footprint: Map[String, Double] = Map.empty,
)

/** In-memory trace of one run. Spans (name, start, end, parent) and timing
  * samples are kept only while `tracing` is on; everything is written out
  * as JSON when the run ends.
  */
final class Recorder {

  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)

  val spans = mutable.ArrayBuffer.empty[Span]
  val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  var tracing = false
  private var open: List[Int] = Nil
  private var lastId = 0
  private var replayNs = 0L

  def sample(name: String, value: Double): Unit =
    if (tracing) samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += value

  /** Time `body`, recording a span (and a sample under `metric`, when given)
    * if tracing is on.
    */
  def span[T](name: String, metric: String = "", scale: Double = 1e-6)(body: => T): T = {
    if (!tracing) return body
    lastId += 1
    val id = lastId
    val parent = open.headOption.getOrElse(0)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      spans += Span(id, parent, name, t0, t1)
      if (metric.nonEmpty) sample(metric, (t1 - t0) * scale)
    }
  }

  /** Run extra layer calls after an op's span has closed; their time is
    * excluded from the pass's wall time. With `attach`, the calls reproduce
    * the op's work from outside (call `span` directly inside, without
    * nesting): their spans become children of the op's span, laid back to
    * back from its start, so its unattributed time is the part of it the
    * replay does not account for. Otherwise they are top-level measurements.
    */
  def replay(attach: Boolean)(body: => Unit): Unit = if (tracing) {
    val parent = spans.last
    val first = spans.size
    if (attach) open = List(parent.id)
    val t0 = System.nanoTime()
    try body
    finally {
      replayNs += System.nanoTime() - t0
      open = Nil
      var cursor = parent.startNs
      if (attach) for (i <- first until spans.size) {
        val s = spans(i)
        spans(i) = s.copy(startNs = cursor, endNs = cursor + (s.endNs - s.startNs))
        cursor = spans(i).endNs
      }
    }
  }

  /** Time spent in `replay` since the last call, in ms. */
  def takeReplayMs(): Double = { val r = replayNs / 1e6; replayNs = 0L; r }
}
