package repro.sim

import org.scalatest.funsuite.AnyFunSuite

/** Cluster presets (paper Table 3) and the knob vector (Tables 1 and 4). */
class HardwareConfSpec extends AnyFunSuite {

  test("Table 3: Cluster A is 8 physical nodes with 6GB / 8 cores") {
    val a = Hardware.ClusterA
    assert(a.nodes == 8 && a.memPerNodeMb == 6144 && a.coresPerNode == 8)
    assert(a.maxHeapPerNodeMb == 4404)
  }

  test("Table 3: Cluster B is 4 virtual nodes with 32GB") {
    val b = Hardware.ClusterB
    assert(b.nodes == 4 && b.memPerNodeMb == 32768)
  }

  test("Sec 4 example: container choices on Cluster A heaps") {
    val heaps = Hardware.ClusterA.containerChoices.map(Hardware.ClusterA.heapMb)
    assert(heaps == Seq(4404.0, 2202.0, 1468.0, 1101.0))
  }

  test("Sec 6.1: Task Concurrency bounded by cores per container") {
    val a = Hardware.ClusterA
    assert(a.maxConcurrency(1) == 8 && a.maxConcurrency(2) == 4 && a.maxConcurrency(4) == 2)
  }

  test("Table 4: MaxResourceAllocation defaults on Cluster A") {
    val d = MemoryConf.default(Hardware.ClusterA)
    assert(d.containersPerNode == 1)
    assert(d.heapMb == 4404.0)
    assert(d.taskConcurrency == 2)
    assert(math.abs(d.cacheCap + d.shuffleCap - 0.6) < 1e-9)
    assert(d.newRatio == 2 && MemoryConf.survivorRatio == 8)
  }

  test("physical container cap shrinks with container count") {
    val a = Hardware.ClusterA
    assert(a.containerPhysCapMb(2) == a.containerPhysCapMb(1) / 2)
  }

  test("Table 2: the test suite covers the paper's computational classes") {
    val names = AppModel.clusterASuite.map(_.name)
    assert(names == Seq("WordCount", "SortByKey", "K-means", "SVM", "PageRank"))
    assert(AppModel.wordCount.cacheMbTotal == 0)       // Map and Reduce
    assert(AppModel.kMeans.iterations > 1)             // iterative ML
    assert(AppModel.pageRank.netShareOfIo > 0.9)       // network-bound graph
    assert(AppModel.tpch.shuffleNeedMb > 0)            // SQL
  }

  test("MemoryConf rejects nonsensical knobs") {
    intercept[IllegalArgumentException](MemoryConf(0, 1000, 1, 0.5, 0, 2))
    intercept[IllegalArgumentException](MemoryConf(1, 1000, 0, 0.5, 0, 2))
    intercept[IllegalArgumentException](MemoryConf(1, 1000, 1, 0.5, 0, 0))
    intercept[IllegalArgumentException](MemoryConf(1, 1000, 1, -0.1, 0, 2))
  }
}
