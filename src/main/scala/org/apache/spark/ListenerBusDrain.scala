package org.apache.spark

/** Waits for Spark's listener bus to deliver every event posted so far.
  *
  * `SparkContext.listenerBus` is `private[spark]`, so code outside this
  * package cannot wait on it. This shim lives in `org.apache.spark` only to
  * reach it, and exposes nothing but the drain Spark's own suites use.
  */
object ListenerBusDrain {

  /** Blocks until every listener queue is empty; throws
    * `java.util.concurrent.TimeoutException` after Spark's default 10 s.
    */
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
