package repro.opt

import java.util.Arrays

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
final class Mlp(val sizes: Array[Int], outTanh: Boolean, seed: Long) {

  private val rnd = new scala.util.Random(seed)
  private val L = sizes.length - 1

  val w: Array[Array[Double]] = Array.tabulate(L) { l =>
    val fanIn = sizes(l)
    Array.fill(sizes(l + 1) * fanIn)((rnd.nextDouble() * 2 - 1) / math.sqrt(fanIn))
  }
  val b: Array[Array[Double]] = Array.tabulate(L)(l => new Array[Double](sizes(l + 1)))

  // Adam state
  private[opt] val mw = w.map(a => new Array[Double](a.length))
  private[opt] val vw = w.map(a => new Array[Double](a.length))
  private[opt] val mb = b.map(a => new Array[Double](a.length))
  private[opt] val vb = b.map(a => new Array[Double](a.length))
  private var t = 0

  /** One pass's activations per layer (`acts(0)` is the input) and deltas:
    * after [[backprop]], `deltas(l)` for l ≥ 1 is the gradient w.r.t. layer
    * l's pre-activations and `deltas(0)` the gradient w.r.t. the input.
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

  /** Runs the net on `tr.input`; returns `tr.output`. */
  def forward(tr: Trace): Array[Double] = {
    var l = 0
    while (l < L) {
      val in = tr.acts(l)
      val out = tr.acts(l + 1)
      val wl = w(l)
      val squash = l < L - 1 || outTanh
      var i = 0
      while (i < out.length) {
        var s = b(l)(i)
        val row = i * in.length
        var j = 0
        while (j < in.length) { s += wl(row + j) * in(j); j += 1 }
        out(i) = if (squash) math.tanh(s) else s
        i += 1
      }
      l += 1
    }
    tr.output
  }

  def apply(x: Array[Double]): Array[Double] = {
    val tr = trace()
    System.arraycopy(x, 0, tr.input, 0, x.length)
    forward(tr)
  }

  /** Backpropagates `tr.gradOut` through a forward-run trace, filling its
    * deltas; returns the gradient w.r.t. the input (`tr.deltas(0)`).
    */
  def backprop(tr: Trace): Array[Double] = {
    var l = L - 1
    while (l >= 0) {
      val delta = tr.deltas(l + 1)
      val act = tr.acts(l + 1)
      // tanh derivative on all but a linear output layer
      if (l < L - 1 || outTanh) {
        var i = 0
        while (i < delta.length) { delta(i) *= (1.0 - act(i) * act(i)); i += 1 }
      }
      val gIn = tr.deltas(l)
      Arrays.fill(gIn, 0.0)
      val wl = w(l)
      var i = 0
      while (i < delta.length) {
        val d = delta(i)
        val row = i * gIn.length
        var j = 0
        while (j < gIn.length) { gIn(j) += wl(row + j) * d; j += 1 }
        i += 1
      }
      l -= 1
    }
    tr.deltas(0)
  }

  /** Adds one backpropagated trace's parameter gradients, d ⊗ in and d, to `g`. */
  def accumulate(tr: Trace, g: Grads): Unit = {
    var l = 0
    while (l < L) {
      val delta = tr.deltas(l + 1)
      val in = tr.acts(l)
      val gw = g.w(l)
      val gb = g.b(l)
      var i = 0
      while (i < delta.length) {
        val d = delta(i)
        gb(i) += d
        val row = i * in.length
        var j = 0
        while (j < in.length) { gw(row + j) += d * in(j); j += 1 }
        i += 1
      }
      l += 1
    }
  }

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

  def copyFrom(src: Mlp): Unit = softUpdateFrom(src, 1.0)
}

object Mlp {
  private val b1 = 0.9
  private val b2 = 0.999
  private val eps = 1e-8

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
