package repro.tables

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{Hardware, MemoryConf}

/** Paper Table 4: config values suggested by MaxResourceAllocation and the
  * framework defaults on Cluster A. These must match the paper exactly —
  * they are policy outputs, not measurements.
  */
class Table4DefaultsSpec extends AnyFunSuite {

  private lazy val rows = Tables.table4()

  test("Table 4 reproduces the paper's default configuration verbatim") {
    val m = rows.toMap
    assert(m("Containers per Node") == "1")
    assert(m("Heap Size") == "4404MB")
    assert(m("Task Concurrency") == "2")
    assert(m("Cache Capacity + Shuffle Capacity") == "0.6")
    assert(m("NewRatio") == "2")
    assert(m("SurvivorRatio") == "8")
  }

  test("the default policy gives one fat container the entire node") {
    val d = MemoryConf.default(Hardware.ClusterA)
    assert(d.heapMb == Hardware.ClusterA.maxHeapPerNodeMb.toDouble)
  }
}
