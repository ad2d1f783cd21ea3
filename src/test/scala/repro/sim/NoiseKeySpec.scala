package repro.sim

import org.scalatest.funsuite.AnyFunSuite

/** Pins what `Simulator.run` draws its noise from, bit for bit. Every
  * literal was recorded while `MemoryConf` still had a seven-field case-class
  * `hashCode` (SurvivorRatio included) that the jitter was seeded from, so a
  * change to the knob record's shape that moved any simulated runtime fails
  * here. `tables.golden` covers Cluster B only through Fig 21's TPC-H row.
  */
class NoiseKeySpec extends AnyFunSuite {

  test("noiseKey gives the old case-class hash on both clusters") {
    import Hardware.{ClusterA, ClusterB}
    val pinned = Seq(
      MemoryConf.default(ClusterA) -> -1903782866,
      MemoryConf.of(ClusterA, 2, 3, 12 * 0.05, 0.1, 4) -> 534308550,
      MemoryConf.of(ClusterA, 4, 1, 0.0, 0.6, 9) -> 492163259,
      MemoryConf.of(ClusterA, 2, 1, 0.22546887458465883, 0.0, 2) -> 1053208007,
      MemoryConf.default(ClusterB) -> 597870540,
      MemoryConf.of(ClusterB, 2, 3, 12 * 0.05, 0.1, 4) -> 263216289,
      MemoryConf.of(ClusterB, 4, 1, 0.0, 0.6, 9) -> -846639236,
      MemoryConf.of(ClusterB, 3, 1, 0.6514289200710451, 0.0, 4) -> 1217412589,
    )
    for ((c, key) <- pinned) assert(c.noiseKey == key, c)
  }

  test("every app's default-configuration run on Cluster B is pinned bit for bit") {
    val sim = new Simulator(Hardware.ClusterB)
    val pinned = Map(
      "WordCount" -> 0x408ab5e9997469f8L,
      "SortByKey" -> 0x407c6c45cae655b2L,
      "K-means" -> 0x409346bb51981231L,
      "SVM" -> 0x408b70381fc7666dL,
      "PageRank" -> 0x40a7bcec51e2429dL,
      "TPC-H" -> 0x40adeb665f812e4cL,
    )
    assert(AppModel.all.map(_.name).toSet == pinned.keySet)
    for (app <- AppModel.all) {
      val r = sim.run(app, MemoryConf.default(sim.hw), 0)
      assert(java.lang.Double.doubleToRawLongBits(r.runtimeSec) == pinned(app.name),
        s"${app.name}: ${r.runtimeSec}")
      assert(r.failedContainers == 0, app.name)
    }
  }
}
