package repro.sim

import org.scalatest.funsuite.AnyFunSuite

/** JVM pool-sizing formulas (paper Eq 3 / Sec 2.1) and the GC-overhead
  * mechanisms behind Observations 5-7.
  */
class GcModelSpec extends AnyFunSuite {

  private val hw = Hardware.ClusterA
  private def conf(n: Int = 1, p: Int = 2, cache: Double = 0.6, shuffle: Double = 0.0, nr: Int = 2) =
    MemoryConf.of(hw, n, p, cache, shuffle, nr)

  // Pool formulas hold for every NewRatio (registration loop).
  for (nr <- 1 to 9) {
    test(s"pool sizing partitions the heap for NewRatio=$nr") {
      val c = conf(nr = nr)
      assert(math.abs(c.oldMb + c.youngMb - c.heapMb) < 1e-6)
      assert(math.abs(c.oldMb / c.youngMb - nr.toDouble) < 1e-9)
      assert(math.abs(c.edenMb + 2 * c.survivorMb - c.youngMb) < 1e-6)
      assert(math.abs(c.edenMb / c.survivorMb - (MemoryConf.survivorRatio - 2)) < 1e-9)
    }
  }

  test("Eq 3 example: NewRatio=2 gives Old two thirds of heap") {
    val c = conf(nr = 2)
    assert(math.abs(c.oldMb - c.heapMb * 2 / 3) < 1e-6)
  }

  test("unified pool is a fraction of heap minus the reserved region") {
    val c = conf(cache = 0.5, shuffle = 0.1)
    assert(math.abs(c.unifiedMb - 0.6 * (c.heapMb - MemoryConf.reservedMb)) < 1e-6)
  }

  test("load: cache hit ratio is capacity-bound for cache-hungry apps") {
    val l = GcModel.load(AppModel.pageRank, hw, conf())
    assert(l.hitRatio > 0.2 && l.hitRatio < 0.5) // paper Table 6: H = 0.3
    assert(l.cacheUsedMb < l.cacheReqMb)
  }

  test("load: no-cache apps have hit ratio 1 and zero cache demand") {
    val l = GcModel.load(AppModel.wordCount, hw, conf())
    assert(l.cacheReqMb == 0.0 && l.hitRatio == 1.0)
  }

  test("load: shuffle spills when the unified pool is undersized (Eq-2 input)") {
    val l = GcModel.load(AppModel.sortByKey, hw, conf(cache = 0.1))
    assert(l.spillFraction > 0.5)
    val l2 = GcModel.load(AppModel.sortByKey, hw, conf(cache = 0.8))
    assert(l2.spillFraction < l.spillFraction)
  }

  test("Obs 5: Old smaller than long-lived data inflates GC overhead") {
    val small = conf(nr = 1, cache = 0.7)  // Old = 0.5 heap < cache demand
    val fit   = conf(nr = 4, cache = 0.7)  // Old = 0.8 heap
    val app = AppModel.kMeans
    val gSmall = GcModel.gcOverhead(app, small, GcModel.load(app, hw, small))
    val gFit   = GcModel.gcOverhead(app, fit, GcModel.load(app, hw, fit))
    assert(gSmall > gFit + 0.05)
  }

  test("Obs 6 / Fig 9: very high NewRatio pays young-GC frequency") {
    val app = AppModel.kMeans
    def g(nr: Int) = GcModel.gcOverhead(app, conf(nr = nr), GcModel.load(app, hw, conf(nr = nr)))
    assert(g(8) > g(2))      // tiny Eden collects constantly
    assert(g(1) > g(2))      // Old too small for the cache (Obs 5 side)
  }

  test("Obs 7 / Fig 10: spill chunks beyond half of per-task Eden cost full GCs") {
    val app = AppModel.sortByKey
    def g(cap: Double, nr: Int) = {
      val c = conf(cache = 0.0, shuffle = cap, nr = nr)
      GcModel.gcOverhead(app, c, GcModel.load(app, hw, c))
    }
    assert(g(0.6, 2) > g(0.1, 2) + 0.2) // more shuffle memory ⇒ more GC
    assert(g(0.3, 3) >= g(0.3, 1))      // smaller Eden ⇒ worse at same capacity
  }

  test("young-GC term grows super-linearly with task concurrency") {
    val app = AppModel.kMeans
    def g(p: Int) = GcModel.gcOverhead(app, conf(p = p), GcModel.load(app, hw, conf(p = p)))
    assert(g(4) > g(2) && g(8) > g(4))
  }

  test("GC overhead is always within [0, cap]") {
    for (app <- AppModel.all; n <- 1 to 4; nr <- Seq(1, 5, 9); cap <- Seq(0.1, 0.5, 0.8)) {
      val c = MemoryConf.of(hw, n, 2, if (app.usesCache) cap else 0.0,
        if (app.usesCache) 0.0 else cap, nr)
      val g = GcModel.gcOverhead(app, c, GcModel.load(app, hw, c))
      assert(g >= 0.0 && g <= GcModel.Constants.totalCap)
    }
  }

  test("full-GC events: present under pressure, absent for roomy SVM (Sec 4.1)") {
    val svmDefault = conf()
    assert(!GcModel.hasFullGc(AppModel.svm, svmDefault,
      GcModel.load(AppModel.svm, hw, svmDefault)))
    val prDefault = conf()
    assert(GcModel.hasFullGc(AppModel.pageRank, prDefault,
      GcModel.load(AppModel.pageRank, hw, prDefault)))
  }
}
