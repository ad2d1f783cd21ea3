package repro.opt

import org.scalatest.funsuite.AnyFunSuite

/** The hand-rolled MLP under DDPG: backprop must agree with numerical
  * gradients for both parameters and inputs, and training must converge.
  */
class MlpSpec extends AnyFunSuite {

  /** A forward pass on `x` with `gradOut` backpropagated through it. */
  private def backprop(net: Mlp, x: Array[Double], gradOut: Array[Double] => Array[Double]): net.Trace = {
    val tr = net.trace()
    x.copyToArray(tr.input)
    net.forward(tr)
    gradOut(tr.output).copyToArray(tr.gradOut)
    net.backprop(tr)
    tr
  }

  test("parameter gradients agree with finite differences") {
    val net = new Mlp(Array(3, 5, 1), outTanh = false, seed = 1)
    val x = Array(0.3, -0.2, 0.8)
    def loss(): Double = { val o = net(x)(0); 0.5 * o * o }

    val g = net.grads()
    net.accumulate(backprop(net, x, o => Array(o(0))), g) // dL/do = o
    val eps = 1e-6
    for (l <- net.w.indices; k <- net.w(l).indices) {
      val orig = net.w(l)(k)
      net.w(l)(k) = orig + eps; val up = loss()
      net.w(l)(k) = orig - eps; val dn = loss()
      net.w(l)(k) = orig
      val num = (up - dn) / (2 * eps)
      assert(math.abs(num - g.w(l)(k)) < 1e-5, s"w($l)($k): $num vs ${g.w(l)(k)}")
    }
  }

  test("input gradients agree with finite differences") {
    val net = new Mlp(Array(2, 4, 1), outTanh = false, seed = 2)
    val x = Array(0.1, -0.5)
    def loss(p: Array[Double]): Double = { val o = net(p)(0); 0.5 * o * o }
    val gIn = backprop(net, x, o => Array(o(0))).deltas(0)
    val eps = 1e-6
    for (i <- x.indices) {
      val up = loss(x.updated(i, x(i) + eps))
      val dn = loss(x.updated(i, x(i) - eps))
      val num = (up - dn) / (2 * eps)
      assert(math.abs(num - gIn(i)) < 1e-5)
    }
  }

  test("accumulating one backpropagated trace twice equals two separate draws, bit for bit") {
    val net = new Mlp(Array(3, 6, 6, 2), outTanh = true, seed = 10)
    val x = Array(0.4, -0.7, 0.2)
    val dL = (o: Array[Double]) => o.map(_ - 0.3)
    val other = backprop(net, Array(-0.1, 0.5, 0.9), dL)
    val (once, twice) = (net.grads(), net.grads())
    for (g <- Seq(once, twice)) net.accumulate(other, g) // non-zero sums to add to
    val tr = backprop(net, x, dL)
    net.accumulate(tr, once); net.accumulate(tr, once)
    net.accumulate(backprop(net, x, dL), twice); net.accumulate(backprop(net, x, dL), twice)
    for (l <- net.w.indices) {
      for (k <- net.w(l).indices) assert(once.w(l)(k) == twice.w(l)(k), s"w($l)($k)")
      for (i <- net.b(l).indices) assert(once.b(l)(i) == twice.b(l)(i), s"b($l)($i)")
    }
  }

  test("forward equals the nested reference bit for bit, four-unit blocks and leftover units alike") {
    val rnd = new scala.util.Random(11)
    for (width <- Seq(1, 3, 4, 5, 7, 64); outTanh <- Seq(true, false)) {
      val sizes = Array(width, 5, width, 3, width)
      val net = new Mlp(sizes, outTanh, seed = width)
      val ref = new DdpgSpec.ReferenceMlp(sizes, outTanh, seed = width)
      for (l <- net.b.indices; i <- net.b(l).indices) { // non-zero biases, as training leaves them
        net.b(l)(i) = rnd.nextGaussian(); ref.b(l)(i) = net.b(l)(i)
      }
      for (_ <- 0 until 20) {
        val x = Array.fill(width)(rnd.nextGaussian() * 2)
        val tr = net.trace()
        x.copyToArray(tr.input)
        net.forward(tr)
        val want = ref.forward(x)
        for (l <- want.indices; i <- want(l).indices)
          assert(tr.acts(l)(i) == want(l)(i), s"width $width, outTanh $outTanh, layer $l unit $i")
      }
    }
  }

  test("Adam training fits a small regression target") {
    val net = new Mlp(Array(2, 16, 1), outTanh = false, seed = 3)
    val rnd = new scala.util.Random(4)
    val data = Array.fill(64)(Array(rnd.nextDouble() * 2 - 1, rnd.nextDouble() * 2 - 1))
    def target(p: Array[Double]) = 0.5 * p(0) - 0.3 * p(1)
    val g = net.grads()
    for (_ <- 0 until 400) {
      g.zero()
      for (p <- data)
        net.accumulate(backprop(net, p, o => Array(2.0 * (o(0) - target(p)) / data.length)), g)
      net.adamStep(g, 1e-2)
    }
    val mse = data.map(p => math.pow(net(p)(0) - target(p), 2)).sum / data.length
    assert(mse < 1e-3, s"mse=$mse")
  }

  test("tanh output head bounds actions to [-1, 1]") {
    val net = new Mlp(Array(3, 8, 2), outTanh = true, seed = 5)
    val rnd = new scala.util.Random(6)
    for (_ <- 0 until 50) {
      val o = net(Array.fill(3)(rnd.nextDouble() * 10 - 5))
      assert(o.forall(v => v >= -1 && v <= 1))
    }
  }

  test("soft target update moves weights by tau toward the source") {
    val a = new Mlp(Array(2, 3, 1), outTanh = false, seed = 7)
    val b = new Mlp(Array(2, 3, 1), outTanh = false, seed = 8)
    val before = b.w(0)(0)
    val src = a.w(0)(0)
    b.softUpdateFrom(a, 0.1)
    assert(math.abs(b.w(0)(0) - (0.1 * src + 0.9 * before)) < 1e-12)
  }

  test("a copied net has the source's weights and biases in arrays of its own") {
    val a = new Mlp(Array(3, 5, 2), outTanh = true, seed = 12)
    a.b(1)(1) = 0.25
    val c = a.copy()
    assert(c.sizes.sameElements(a.sizes) && c.w.length == a.w.length && c.b.length == a.b.length)
    for (l <- a.w.indices) {
      assert(c.w(l).sameElements(a.w(l)) && c.b(l).sameElements(a.b(l)), s"layer $l")
      assert((c.w(l) ne a.w(l)) && (c.b(l) ne a.b(l)), s"layer $l")
    }
    assert((c.w ne a.w) && (c.b ne a.b))
    val x = Array(0.3, -0.6, 0.9)
    assert(c(x).sameElements(a(x)))
  }

  test("backprop without the input gradient leaves every layer's deltas as a full backprop does") {
    val rnd = new scala.util.Random(13)
    for (width <- Seq(1, 3, 4, 5, 7, 64); outTanh <- Seq(true, false)) {
      val net = new Mlp(Array(width, 5, width, 3), outTanh, seed = width)
      for (_ <- 0 until 10) {
        val x = Array.fill(width)(rnd.nextGaussian())
        val dL = (o: Array[Double]) => o.map(_ - 0.2)
        val full = backprop(net, x, dL)
        val tr = net.trace()
        x.copyToArray(tr.input)
        net.forward(tr)
        dL(tr.output).copyToArray(tr.gradOut)
        net.backprop(tr, inputGrad = false)
        for (l <- 1 until tr.deltas.length; i <- tr.deltas(l).indices)
          assert(tr.deltas(l)(i).equals(full.deltas(l)(i)), s"width $width, outTanh $outTanh, delta($l)($i)")
        assert(tr.deltas(0).forall(_ == 0.0), "no input gradient")
      }
    }
  }

  test("parameter count matches the architecture") {
    val net = new Mlp(Array(4, 8, 2), outTanh = true, seed = 9)
    assert(net.paramCount == 4 * 8 + 8 + 8 * 2 + 2)
  }

  test("Lcg draws the doubles of scala.util.Random, bit for bit") {
    val seeds = Seq(0L, -1L, 1L, 7L, 0x5DEECE66DL, Long.MinValue, Long.MaxValue) ++ (-20L to 20L)
    for (seed <- seeds) {
      val lcg = new Mlp.Lcg(seed)
      val rnd = new scala.util.Random(seed)
      val bad = (0 until 10176).find { _ =>
        java.lang.Double.doubleToRawLongBits(lcg.nextDouble()) != java.lang.Double.doubleToRawLongBits(rnd.nextDouble())
      }
      assert(bad.isEmpty, s"seed $seed: draw ${bad.getOrElse(-1)} differs")
    }
  }
}
