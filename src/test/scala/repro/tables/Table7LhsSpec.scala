package repro.tables

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.Hardware

/** Paper Table 7: the 4 Latin-Hypercube samples bootstrapping BO.
  * The paper's draws are one realization; the properties that matter are the
  * stratified coverage of each dimension.
  */
class Table7LhsSpec extends AnyFunSuite {

  private lazy val samples = Tables.table7()

  test("Table 7 prints our LHS bootstrap draw") {
    assert(samples.size == 4)
  }

  test("every container count appears exactly once (like the paper's draw)") {
    assert(samples.map(_.containersPerNode).sorted == Vector(1, 2, 3, 4))
  }

  test("capacity samples cover all four quartiles") {
    val caps = samples.map(c => math.max(c.cacheCap, c.shuffleCap))
    val quartiles = caps.map(c => math.min(3, ((c - 0.05) / 0.75 * 4).toInt))
    assert(quartiles.distinct.size == 4)
  }

  test("NewRatio samples are spread over at least three distinct strata") {
    assert(samples.map(c => (c.newRatio - 1) / 3).distinct.size >= 3 ||
      samples.map(_.newRatio).distinct.size == 4)
  }

  test("all samples are legal configurations") {
    for (c <- samples) {
      assert(c.taskConcurrency <= Hardware.ClusterA.maxConcurrency(c.containersPerNode))
      assert(c.newRatio >= 1 && c.newRatio <= 9)
    }
  }
}
