package repro.opt

import java.util.Arrays
import repro.linalg.FdLibm

/** Small dense neural network with tanh hidden layers, used by the DDPG
  * actor and critic (paper Sec 5.3). Supports backprop to both parameters
  * and *inputs* — the latter is required for the deterministic policy
  * gradient (∂Q/∂a flows through the critic into the actor).
  * Optimized with Adam.
  *
  * Layer l's weights are one row-major array: `w(l)(i * sizes(l) + j)`
  * links input j to unit i. Passes run in a reusable [[Trace]] and
  * gradients add into a reusable [[Grads]], so training allocates nothing.
  */
final class Mlp private (val sizes: Array[Int], outTanh: Boolean,
                         val w: Array[Array[Double]], val b: Array[Array[Double]]) {

  /** A net with weights drawn uniformly in ±1/√fan-in from `seed`, and zero biases. */
  def this(sizes: Array[Int], outTanh: Boolean, seed: Long) =
    this(sizes, outTanh, Mlp.drawWeights(sizes, seed),
      Array.tabulate(sizes.length - 1)(l => new Array[Double](sizes(l + 1))))

  private val L = sizes.length - 1

  // Adam state
  private[opt] val mw = w.map(a => new Array[Double](a.length))
  private[opt] val vw = w.map(a => new Array[Double](a.length))
  private[opt] val mb = b.map(a => new Array[Double](a.length))
  private[opt] val vb = b.map(a => new Array[Double](a.length))
  private var t = 0

  /** One pass's activations per layer (`acts(0)` is the input) and deltas:
    * after [[backprop]], `deltas(l)` for l ≥ 1 is the gradient w.r.t. layer
    * l's pre-activations and `deltas(0)`, if asked for, the gradient w.r.t.
    * the input.
    */
  final class Trace private[Mlp] () {
    val acts: Array[Array[Double]] = sizes.map(new Array[Double](_))
    val deltas: Array[Array[Double]] = sizes.map(new Array[Double](_))
    def input: Array[Double] = acts(0)
    def output: Array[Double] = acts(L)
    /** Where the caller puts the gradient w.r.t. the output before [[backprop]]. */
    def gradOut: Array[Double] = deltas(L)
  }

  def trace(): Trace = new Trace

  /** Parameter gradients, laid out as `w` and `b`. */
  final class Grads private[Mlp] () {
    val w: Array[Array[Double]] = Mlp.this.w.map(a => new Array[Double](a.length))
    val b: Array[Array[Double]] = Mlp.this.b.map(a => new Array[Double](a.length))
    def zero(): Unit = { w.foreach(Arrays.fill(_, 0.0)); b.foreach(Arrays.fill(_, 0.0)) }
  }

  def grads(): Grads = new Grads

  /** Runs the net on `tr.input`; returns `tr.output`. Each unit sums
    * b + w·x over j = 0..n−1 in order; four units share each sweep of the
    * input, and a scalar loop takes the units left over.
    */
  def forward(tr: Trace): Array[Double] = {
    var l = 0
    while (l < L) {
      val in = tr.acts(l)
      val out = tr.acts(l + 1)
      val wl = w(l)
      val bl = b(l)
      val n = in.length
      val squash = l < L - 1 || outTanh
      var i = 0
      while (i + 4 <= out.length) {
        var s0 = bl(i); var s1 = bl(i + 1); var s2 = bl(i + 2); var s3 = bl(i + 3)
        val r0 = i * n; val r1 = r0 + n; val r2 = r1 + n; val r3 = r2 + n
        var j = 0
        while (j < n) {
          val x = in(j)
          s0 += wl(r0 + j) * x; s1 += wl(r1 + j) * x; s2 += wl(r2 + j) * x; s3 += wl(r3 + j) * x
          j += 1
        }
        out(i) = squashed(s0, squash); out(i + 1) = squashed(s1, squash)
        out(i + 2) = squashed(s2, squash); out(i + 3) = squashed(s3, squash)
        i += 4
      }
      while (i < out.length) {
        var s = bl(i)
        val row = i * n
        var j = 0
        while (j < n) { s += wl(row + j) * in(j); j += 1 }
        out(i) = squashed(s, squash)
        i += 1
      }
      l += 1
    }
    tr.output
  }

  private def squashed(s: Double, squash: Boolean): Double = if (squash) FdLibm.tanh(s) else s

  def apply(x: Array[Double]): Array[Double] = {
    val tr = trace()
    System.arraycopy(x, 0, tr.input, 0, x.length)
    forward(tr)
  }

  /** Backpropagates `tr.gradOut` through a forward-run trace, filling its
    * deltas down to `deltas(1)`, which is all [[accumulate]] reads, and the
    * input gradient `deltas(0)` too when `inputGrad` is set.
    */
  def backprop(tr: Trace, inputGrad: Boolean = true): Unit = {
    var l = L - 1
    while (l >= 0) {
      val delta = tr.deltas(l + 1)
      val act = tr.acts(l + 1)
      // tanh derivative on all but a linear output layer
      if (l < L - 1 || outTanh) {
        var i = 0
        while (i < delta.length) { delta(i) *= (1.0 - act(i) * act(i)); i += 1 }
      }
      if (l == 0 && !inputGrad) return
      val gIn = tr.deltas(l)
      Arrays.fill(gIn, 0.0)
      val wl = w(l)
      val n = gIn.length
      var i = 0
      while (i + 4 <= delta.length) { // four units per sweep, added in unit order
        val d0 = delta(i); val d1 = delta(i + 1); val d2 = delta(i + 2); val d3 = delta(i + 3)
        val r0 = i * n; val r1 = r0 + n; val r2 = r1 + n; val r3 = r2 + n
        var j = 0
        while (j < n) {
          gIn(j) = gIn(j) + wl(r0 + j) * d0 + wl(r1 + j) * d1 + wl(r2 + j) * d2 + wl(r3 + j) * d3
          j += 1
        }
        i += 4
      }
      while (i < delta.length) {
        val d = delta(i)
        val row = i * n
        var j = 0
        while (j < n) { gIn(j) += wl(row + j) * d; j += 1 }
        i += 1
      }
      l -= 1
    }
  }

  /** Adds the parameter gradients, d ⊗ in and d, of the backpropagated
    * traces `trs(draws(0))`, …, `trs(draws(n − 1))` to `g` in that order.
    * Four draws share each sweep of a weight row.
    */
  def accumulate(trs: Array[Trace], draws: Array[Int], n: Int, g: Grads): Unit = {
    var l = 0
    while (l < L) {
      val gw = g.w(l)
      val gb = g.b(l)
      val m = sizes(l)
      var i = 0
      while (i < sizes(l + 1)) {
        val row = i * m
        var k = 0
        while (k + 4 <= n) {
          val t0 = trs(draws(k)); val t1 = trs(draws(k + 1)); val t2 = trs(draws(k + 2)); val t3 = trs(draws(k + 3))
          val d0 = t0.deltas(l + 1)(i); val d1 = t1.deltas(l + 1)(i)
          val d2 = t2.deltas(l + 1)(i); val d3 = t3.deltas(l + 1)(i)
          val in0 = t0.acts(l); val in1 = t1.acts(l); val in2 = t2.acts(l); val in3 = t3.acts(l)
          gb(i) = gb(i) + d0 + d1 + d2 + d3
          var j = 0
          while (j < m) {
            gw(row + j) = gw(row + j) + d0 * in0(j) + d1 * in1(j) + d2 * in2(j) + d3 * in3(j)
            j += 1
          }
          k += 4
        }
        while (k < n) {
          val tr = trs(draws(k))
          val d = tr.deltas(l + 1)(i)
          val in = tr.acts(l)
          gb(i) += d
          var j = 0
          while (j < m) { gw(row + j) += d * in(j); j += 1 }
          k += 1
        }
        i += 1
      }
      l += 1
    }
  }

  /** Adds one backpropagated trace's parameter gradients to `g`. */
  def accumulate(tr: Trace, g: Grads): Unit = accumulate(Array(tr), Array(0), 1, g)

  def adamStep(g: Grads, lr: Double): Unit = {
    t += 1
    val c1 = 1 - math.pow(Mlp.b1, t); val c2 = 1 - math.pow(Mlp.b2, t)
    var l = 0
    while (l < L) {
      Mlp.adam(w(l), g.w(l), mw(l), vw(l), lr, c1, c2)
      Mlp.adam(b(l), g.b(l), mb(l), vb(l), lr, c1, c2)
      l += 1
    }
  }

  /** Parameter count (for the Table-10 model-size row). */
  def paramCount: Int = w.map(_.length).sum + b.map(_.length).sum

  /** θ' ← τθ + (1−τ)θ' soft update from `src` into this (target) network. */
  def softUpdateFrom(src: Mlp, tau: Double): Unit = {
    var l = 0
    while (l < L) {
      Mlp.blend(w(l), src.w(l), tau)
      Mlp.blend(b(l), src.b(l), tau)
      l += 1
    }
  }

  /** A net with this one's weights and biases in arrays of its own, and
    * fresh Adam state.
    */
  def copy(): Mlp = new Mlp(sizes, outTanh, w.map(_.clone), b.map(_.clone))
}

object Mlp {
  private val b1 = 0.9
  private val b2 = 0.999
  private val eps = 1e-8

  /** `java.util.Random`'s 48-bit linear congruential generator as its
    * Javadoc specifies it: the same doubles from the same seed, bit for bit,
    * without the `AtomicLong` compare-and-set that each draw of a
    * `java.util.Random` pays. For one thread.
    */
  private[opt] final class Lcg(seed: Long) {
    private val mask = (1L << 48) - 1
    private var s = (seed ^ 0x5DEECE66DL) & mask

    private def next(bits: Int): Int = {
      s = (s * 0x5DEECE66DL + 0xBL) & mask
      (s >>> (48 - bits)).toInt
    }

    /** Uniform in [0, 1): 53 random bits times 2^-53. */
    def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * (1.0 / (1L << 53))
  }

  private def drawWeights(sizes: Array[Int], seed: Long): Array[Array[Double]] = {
    val rnd = new Lcg(seed)
    Array.tabulate(sizes.length - 1) { l =>
      val fanIn = sizes(l)
      val wl = new Array[Double](sizes(l + 1) * fanIn)
      var k = 0
      while (k < wl.length) { wl(k) = (rnd.nextDouble() * 2 - 1) / math.sqrt(fanIn); k += 1 }
      wl
    }
  }

  /** One Adam update of parameters `p` from gradients `g`, moments `m`, `v`. */
  private def adam(p: Array[Double], g: Array[Double], m: Array[Double], v: Array[Double],
                   lr: Double, c1: Double, c2: Double): Unit = {
    var k = 0
    while (k < p.length) {
      val gk = g(k)
      m(k) = b1 * m(k) + (1 - b1) * gk
      v(k) = b2 * v(k) + (1 - b2) * gk * gk
      p(k) -= lr * (m(k) / c1) / (math.sqrt(v(k) / c2) + eps)
      k += 1
    }
  }

  private def blend(p: Array[Double], src: Array[Double], tau: Double): Unit = {
    var k = 0
    while (k < p.length) { p(k) = tau * src(k) + (1 - tau) * p(k); k += 1 }
  }
}
