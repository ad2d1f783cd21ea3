package repro.workloads

import repro.{SparkSpec, SynthData}
import org.apache.spark.storage.StorageLevel

class WorkloadCacheSpec extends SparkSpec {

  test("a cached input is still cached after KMeansW.run, SvmW.train and PageRankW.run") {
    val pts = SynthData.points(spark, n = 300, k = 3).cache()
    val data = SynthData.labeledPoints(spark, n = 300).cache()
    val edges = SynthData.edges(spark, nEdges = 400, nNodes = 50).cache()
    try {
      KMeansW.run(spark, pts, k = 3, iters = 1)
      assert(pts.storageLevel != StorageLevel.NONE, "KMeansW.run")
      SvmW.train(data, epochs = 1)
      assert(data.storageLevel != StorageLevel.NONE, "SvmW.train")
      PageRankW.run(edges, iters = 1)
      assert(edges.storageLevel != StorageLevel.NONE, "PageRankW.run")
    } finally Seq(pts, data, edges).foreach(_.unpersist())
  }
}
