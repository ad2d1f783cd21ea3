package repro.workloads

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import repro.{SparkSpec, SynthData}

/** The SparkListener profiling substrate (local analogue of Thoth/PAT):
  * the footprints that calibrate the AppModels must be observable.
  */
class MetricsSpec extends SparkSpec {

  test("profiling a shuffle workload records shuffle bytes and tasks") {
    val pairs = SynthData.uniformKeys(spark, 50000, 1000)
    val (_, fp) = MetricsCollector.profile(spark) {
      SortByKeyW.sorted(pairs).count()
    }
    assert(fp.tasks > 0)
    assert(fp.shuffleWriteBytes > 0, fp)
    assert(fp.totalTaskMs > 0)
  }

  test("a narrow scan produces no shuffle traffic") {
    val li = SynthData.lineitem(spark, sf = 0.002)
    val (_, fp) = MetricsCollector.profile(spark) {
      li.where("l_quantity < 10").count()
    }
    assert(fp.shuffleWriteBytes < 1000000) // only the tiny count aggregation
  }

  test("shuffle-heavy work moves more bytes than a scan (calibration signal)") {
    val pairs = SynthData.uniformKeys(spark, 30000, 100)
    // collect() the sorted output — under count() Catalyst elides the sort.
    val (_, fpSort) = MetricsCollector.profile(spark)(SortByKeyW.sorted(pairs).collect())
    val (_, fpScan) = MetricsCollector.profile(spark)(pairs.where("k > 50").count())
    assert(fpSort.shuffleWriteBytes > fpScan.shuffleWriteBytes)
  }

  test("GC overhead fraction is a valid ratio") {
    val lines = SynthData.textLines(spark, 20000, 8, 500)
    val (_, fp) = MetricsCollector.profile(spark)(WordCountW.wordCounts(lines).count())
    assert(fp.gcOverhead >= 0.0 && fp.gcOverhead <= 1.0)
  }

  test("profile waits for every task event, even behind a slow listener") {
    val slow = new SparkListener {
      override def onTaskEnd(te: SparkListenerTaskEnd): Unit = Thread.sleep(300)
    }
    spark.sparkContext.addSparkListener(slow)
    try {
      val (_, fp) = MetricsCollector.profile(spark)(spark.sparkContext.parallelize(1 to 100, 4).count())
      assert(fp.tasks == 4)
    } finally spark.sparkContext.removeSparkListener(slow)
  }
}
