/*
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunPro, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 */

package repro.linalg

/** fdlibm 5.3's `tanh` (s_tanh.c) and the `expm1` it calls (s_expm1.c),
  * ported line for line. `StrictMath` specifies these same algorithms,
  * so `tanh(x)` equals `StrictMath.tanh(x)` bit for bit, but it runs in
  * the JIT instead of a native call into the JDK's C fdlibm.
  */
object FdLibm {

  private def hi(x: Double): Int = (java.lang.Double.doubleToRawLongBits(x) >>> 32).toInt
  private def lo(x: Double): Int = java.lang.Double.doubleToRawLongBits(x).toInt
  /** `x` with `k` added to its exponent field (fdlibm's `__HI(x) += k<<20`). */
  private def addExp(x: Double, k: Int): Double =
    java.lang.Double.longBitsToDouble(java.lang.Double.doubleToRawLongBits(x) + (k.toLong << 52))
  /** The double whose high word is `h` and low word 0. */
  private def fromHi(h: Int): Double = java.lang.Double.longBitsToDouble(h.toLong << 32)

  private val tiny = 1.0e-300
  private val huge = 1.0e+300

  /** tanh(x) = (exp(x) − exp(−x)) / (exp(x) + exp(−x)), through expm1:
    * for |x| ≥ 1, 1 − 2/(expm1(2|x|) + 2); below, −t/(t + 2) with
    * t = expm1(−2|x|); ±1 from 22 on; x itself below 2⁻⁵⁵.
    */
  def tanh(x: Double): Double = {
    val jx = hi(x)
    val ix = jx & 0x7fffffff
    if (ix >= 0x7ff00000) { // Inf or NaN
      if (jx >= 0) 1.0 / x + 1.0 // tanh(+-inf) = +-1
      else 1.0 / x - 1.0         // tanh(NaN) = NaN
    } else if (ix < 0x3c800000) x * (1.0 + x) // |x| < 2**-55
    else {
      val z =
        if (ix >= 0x40360000) 1.0 - tiny // |x| >= 22: +-1, inexact
        else if (ix >= 0x3ff00000) { // 1 <= |x| < 22
          val t = expm1(2.0 * math.abs(x))
          1.0 - 2.0 / (t + 2.0)
        } else {
          val t = expm1(-2.0 * math.abs(x))
          -t / (t + 2.0)
        }
      if (jx >= 0) z else -z
    }
  }

  private val oThreshold = 7.09782712893383973096e+02 // 0x40862E42 FEFA39EF
  private val ln2Hi = 6.93147180369123816490e-01      // 0x3fe62e42 fee00000
  private val ln2Lo = 1.90821492927058770002e-10      // 0x3dea39ef 35793c76
  private val invln2 = 1.44269504088896338700e+00     // 0x3ff71547 652b82fe
  // scaled coefficients of expm1's rational approximation
  private val Q1 = -3.33333333333331316428e-02 // BFA11111 111110F4
  private val Q2 = 1.58730158725481460165e-03  // 3F5A01A0 19FE5585
  private val Q3 = -7.93650757867487942473e-05 // BF14CE19 9EAADBB7
  private val Q4 = 4.00821782732936239552e-06  // 3ED0CFCA 86E65239
  private val Q5 = -2.01099218183624371326e-07 // BE8AFDB7 6E09C32D

  /** exp(x) − 1: reduce x = k·ln2 + r with |r| ≤ ln2/2, approximate
    * expm1(r) by a rational function, then scale back by 2^k.
    */
  private[linalg] def expm1(x0: Double): Double = {
    var x = x0
    val hx0 = hi(x)
    val positive = hx0 >= 0 // sign bit of x clear
    val hx = hx0 & 0x7fffffff // high word of |x|

    // filter out huge and non-finite arguments
    if (hx >= 0x4043687A) { // |x| >= 56*ln2
      if (hx >= 0x40862E42) { // |x| >= 709.78...
        if (hx >= 0x7ff00000) {
          if (((hx & 0xfffff) | lo(x)) != 0) return x + x // NaN
          else return if (positive) x else -1.0 // exp(+-inf) = {inf, -1}
        }
        if (x > oThreshold) return huge * huge // overflow
      }
      if (!positive && x + tiny < 0.0) return tiny - 1.0 // x < -56*ln2: -1, inexact
    }

    // argument reduction
    var k = 0
    var c = 0.0
    if (hx > 0x3fd62e42) { // |x| > 0.5 ln2
      var hiPart = 0.0
      var loPart = 0.0
      if (hx < 0x3FF0A2B2) { // and |x| < 1.5 ln2
        if (positive) { hiPart = x - ln2Hi; loPart = ln2Lo; k = 1 }
        else { hiPart = x + ln2Hi; loPart = -ln2Lo; k = -1 }
      } else {
        k = (invln2 * x + (if (positive) 0.5 else -0.5)).toInt
        val t = k.toDouble
        hiPart = x - t * ln2Hi // t*ln2_hi is exact here
        loPart = t * ln2Lo
      }
      x = hiPart - loPart
      c = (hiPart - x) - loPart
    } else if (hx < 0x3c900000) { // |x| < 2**-54: x, inexact when x != 0
      val t = huge + x
      return x - (t - huge)
    }

    // x is now in primary range
    val hfx = 0.5 * x
    val hxs = x * hfx
    val r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))))
    val t = 3.0 - r1 * hfx
    var e = hxs * ((r1 - t) / (6.0 - x * t))
    if (k == 0) return x - (x * e - hxs) // c is 0
    e = x * (e - c) - c
    e -= hxs
    if (k == -1) return 0.5 * (x - e) - 0.5
    if (k == 1) return if (x < -0.25) -2.0 * (e - (x + 0.5)) else 1.0 + 2.0 * (x - e)
    if (k <= -2 || k > 56) return addExp(1.0 - (e - x), k) - 1.0 // exp(x) - 1 suffices
    if (k < 20) addExp(fromHi(0x3ff00000 - (0x200000 >> k)) - (e - x), k) // t = 1 - 2^-k
    else addExp(x - (e + fromHi((0x3ff - k) << 20)) + 1.0, k)              // t = 2^-k
  }
}
