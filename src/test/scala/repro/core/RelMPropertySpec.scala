package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{Hardware, MemoryConf}

/** RelM's safety contract as a property over random hardware and random
  * profiled statistics, not only the five paper apps on Cluster A (those are
  * ArbitratorSpec's per-app × n tests, which share [[SafetyContract]]).
  */
class RelMPropertySpec extends AnyFunSuite {

  private val reservedMb = MemoryConf.reservedMb.toInt

  /** Node heaps from 400 MB (a quarter of it below the reserved region) to
    * 64 GB, with the small ones drawn often enough to be exercised.
    */
  private val genHardware: Gen[Hardware] = for {
    nodes <- Gen.choose(1, 16)
    cores <- Gen.choose(1, 32)
    heap  <- Gen.frequency(1 -> Gen.choose(400, 4 * reservedMb - 1), 3 -> Gen.choose(4 * reservedMb, 65536))
    mem   <- Gen.choose(heap, 2 * heap)
    disks <- Gen.choose(1, 8)
  } yield Hardware("random", nodes, mem, cores, heap, disks)

  private def genPoolMb(mhMb: Double): Gen[Double] =
    Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(0.0, mhMb))

  /** Any profile: pools up to the profiled heap, H and S anywhere in [0, 1]. */
  private val genStats: Gen[Stats] = for {
    n    <- Gen.choose(1, 4)
    mh   <- Gen.choose(100.0, 65536.0)
    cpu  <- Gen.choose(0.0, 100.0)
    disk <- Gen.choose(0.0, 100.0)
    mi   <- Gen.choose(0.0, mh)
    mc   <- genPoolMb(mh)
    ms   <- genPoolMb(mh)
    mu   <- Gen.choose(0.0, mh)
    p    <- Gen.choose(1, 32)
    h    <- Gen.choose(0.0, 1.0)
    s    <- Gen.choose(0.0, 1.0)
    full <- Gen.oneOf(true, false)
  } yield Stats(n, mh, cpu, disk, mi, mc, ms, mu, p, h, s, full)

  test("every RelM candidate is safe on random hardware and statistics") {
    var planned = 0
    var tinyHeaps = 0
    val prop = Prop.forAll(genHardware, genStats) { (hw, st) =>
      val cands = RelM.candidates(st, hw)
      if (cands.nonEmpty) planned += 1
      if (hw.heapMb(hw.containerChoices.max) < reservedMb) tinyHeaps += 1
      val broken = cands.flatMap(SafetyContract.violations(st, hw, _))
      broken.isEmpty :| broken.mkString("; ")
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(2020L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    // The property must not hold vacuously.
    assert(planned >= 100, s"only $planned of ${result.succeeded} cases produced a plan")
    assert(tinyHeaps >= 50, s"only $tinyHeaps cases had sub-reserved container heaps")
  }
}
