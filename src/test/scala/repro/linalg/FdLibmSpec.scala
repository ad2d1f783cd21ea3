package repro.linalg

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import org.scalatest.funsuite.AnyFunSuite

/** The fdlibm port must give `StrictMath`'s results bit for bit. */
class FdLibmSpec extends AnyFunSuite {

  private val ports: Seq[(String, Double => Double, Double => Double)] = Seq(
    ("tanh", FdLibm.tanh, StrictMath.tanh),
    ("expm1", FdLibm.expm1, StrictMath.expm1))

  /** Checks both functions on `n` inputs from `x`; names the first miss. */
  private def sameBits(what: String, n: Int)(x: Int => Double): Unit =
    for ((name, port, strict) <- ports) {
      var i = 0
      while (i < n) {
        val v = x(i)
        val (got, want) = (port(v), strict(v))
        if (doubleToRawLongBits(got) != doubleToRawLongBits(want))
          fail(s"$what: $name($v) [0x${doubleToRawLongBits(v).toHexString}] = $got, StrictMath gives $want")
        i += 1
      }
    }

  test("special values and every branch threshold, with their neighbours") {
    val ln2 = math.log(2)
    val thresholds = Seq(math.pow(2, -55), math.pow(2, -54), ln2 / 2, 1.5 * ln2, 1.0, 22.0, 56 * ln2,
      7.09782712893383973096e+02)
    // The branches compare high words: also take each boundary word's first double.
    val hiWords = Seq(0x3c800000, 0x3c900000, 0x3fd62e42, 0x3FF0A2B2, 0x3ff00000, 0x40360000, 0x4043687A,
      0x40862E42, 0x7ff00000).map(h => longBitsToDouble(h.toLong << 32))
    val specials = Seq(0.0, Double.PositiveInfinity, Double.NaN, Double.MinValue, Double.MaxValue,
      java.lang.Double.MIN_VALUE, java.lang.Double.MIN_NORMAL)
    val base = specials ++ thresholds ++ hiWords
    val xs = (base ++ base.map(-_)).flatMap(v => Seq(v, math.nextUp(v), math.nextDown(v))).toArray
    sameBits("specials", xs.length)(xs)
  }

  test("seeded random bit patterns") {
    val rnd = new scala.util.Random(17)
    sameBits("random bits", 2000000)(_ => longBitsToDouble(rnd.nextLong()))
  }

  test("dense draws over DDPG's pre-activation range and near zero") {
    val rnd = new scala.util.Random(18)
    sameBits("[-30, 30]", 1000000)(_ => rnd.nextDouble() * 60 - 30)
    sameBits("[-1e-3, 1e-3]", 300000)(_ => (rnd.nextDouble() * 2 - 1) * 1e-3)
  }
}
