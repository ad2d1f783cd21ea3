package repro.opt

import org.scalatest.funsuite.AnyFunSuite
import repro.sim._

/** DDPG tuner (Sec 5.3): CDBTune reward semantics and basic learning. */
class DdpgSpec extends AnyFunSuite {

  private val hw = Hardware.ClusterA
  private val sim = new Simulator(hw)
  private def ddpg(app: AppModel, n: Int = 10, seed: Long = 7) =
    new Ddpg(new ConfigSpace(hw, app), maxNewSamples = n, seed = seed)

  test("reward is positive iff performance beats the initial observation") {
    val d = ddpg(AppModel.svm)
    assert(d.reward(r0 = 100, rPrev = 90, rNow = 80) > 0)
    assert(d.reward(r0 = 100, rPrev = 90, rNow = 120) < 0)
  }

  test("reward scales with the magnitude of the improvement") {
    val d = ddpg(AppModel.svm)
    assert(d.reward(100, 100, 60) > d.reward(100, 100, 90))
    assert(d.reward(100, 100, 140) < d.reward(100, 100, 110))
  }

  test("the state vector is a normalized 11-dim resource/Q-metric snapshot") {
    val d = ddpg(AppModel.pageRank)
    val env = new TuningEnv(AppModel.pageRank, sim)
    val o = env.evaluate(MemoryConf.default(hw))
    val s = d.state(o)
    assert(s.length == d.stateDim)
    assert(s.forall(v => v >= 0.0 && v <= 1.0))
  }

  test("DDPG explores the budgeted number of stress tests and improves on default") {
    val env = new TuningEnv(AppModel.wordCount, sim)
    val tr = ddpg(AppModel.wordCount).tune(env)
    assert(tr.iterations <= 11)
    val defaultObj = env.history.head.objective
    assert(tr.best.objective <= defaultObj)
  }

  test("DDPG recommendations are legal knob settings") {
    val tr = ddpg(AppModel.kMeans, seed = 9).tune(new TuningEnv(AppModel.kMeans, sim))
    val c = tr.recommended
    assert(c.containersPerNode >= 1 && c.containersPerNode <= 4)
    assert(c.taskConcurrency <= hw.maxConcurrency(c.containersPerNode))
  }

  test("with a larger budget DDPG keeps improving (reward feedback works)") {
    val short = ddpg(AppModel.kMeans, n = 5, seed = 3).tune(new TuningEnv(AppModel.kMeans, sim, 1))
    val long = ddpg(AppModel.kMeans, n = 25, seed = 3).tune(new TuningEnv(AppModel.kMeans, sim, 1))
    assert(long.best.objective <= short.best.objective)
  }

  test("train() gives the per-draw reference's weights and Adam moments bit for bit") {
    // Replay buffers smaller than the minibatch, about one session's
    // budget, and larger than the minibatch.
    for (size <- Seq(4, 11, 40)) {
      val d = ddpg(AppModel.svm, seed = 5)
      val ref = new DdpgSpec.ReferenceDdpg(seed = 5)
      val rnd = new scala.util.Random(size)
      def vec(n: Int) = Array.fill(n)(rnd.nextDouble() * 2 - 1)
      for (_ <- 0 until size) {
        val (s, a, r, s2) = (vec(d.stateDim), vec(d.actionDim), rnd.nextGaussian(), vec(d.stateDim))
        d.remember(s, a, r, s2)
        ref.replay += ((s, a, r, s2))
      }
      for (_ <- 0 until 30) { d.train(); ref.train() }
      def same(what: String, flat: Array[Array[Double]], nested: Array[Array[Array[Double]]]): Unit =
        for (l <- nested.indices; i <- nested(l).indices; j <- nested(l)(i).indices) {
          val (got, want) = (flat(l)(i * nested(l)(i).length + j), nested(l)(i)(j))
          assert(got == want, s"replay $size, $what($l)($i)($j): $got vs $want")
        }
      def sameB(what: String, got: Array[Array[Double]], want: Array[Array[Double]]): Unit =
        for (l <- want.indices; i <- want(l).indices)
          assert(got(l)(i) == want(l)(i), s"replay $size, $what($l)($i): ${got(l)(i)} vs ${want(l)(i)}")
      for ((name, net, r) <- Seq(("actor", d.actor, ref.actor), ("critic", d.critic, ref.critic),
                                 ("actorT", d.actorT, ref.actorT), ("criticT", d.criticT, ref.criticT))) {
        same(s"$name.w", net.w, r.w); sameB(s"$name.b", net.b, r.b)
        same(s"$name.mw", net.mw, r.mw); same(s"$name.vw", net.vw, r.vw)
        sameB(s"$name.mb", net.mb, r.mb); sameB(s"$name.vb", net.vb, r.vb)
      }
    }
  }

  test("model size reporting covers both actor and critic") {
    val d = ddpg(AppModel.svm)
    assert(d.modelSizeBytes == 8L * (d.actor.paramCount + d.critic.paramCount))
    assert(d.modelSizeBytes > 1000)
  }
}

object DdpgSpec {

  /** The nested-array MLP that `Mlp` replaced: one backward pass per call,
    * allocating its activations, deltas and gradients. Kept as the
    * reference `Mlp`'s flat arithmetic must match bit for bit.
    */
  final class ReferenceMlp(val sizes: Array[Int], outTanh: Boolean, seed: Long) {
    private val rnd = new scala.util.Random(seed)
    private val L = sizes.length - 1
    val w: Array[Array[Array[Double]]] = Array.tabulate(L) { l =>
      val fanIn = sizes(l)
      Array.fill(sizes(l + 1), fanIn)((rnd.nextDouble() * 2 - 1) / math.sqrt(fanIn))
    }
    val b: Array[Array[Double]] = Array.tabulate(L)(l => Array.fill(sizes(l + 1))(0.0))
    val mw = w.map(_.map(_.map(_ => 0.0)))
    val vw = w.map(_.map(_.map(_ => 0.0)))
    val mb = b.map(_.map(_ => 0.0))
    val vb = b.map(_.map(_ => 0.0))
    private var t = 0

    def forward(x: Array[Double]): Array[Array[Double]] = {
      val acts = new Array[Array[Double]](L + 1)
      acts(0) = x
      for (l <- 0 until L) {
        val in = acts(l)
        acts(l + 1) = Array.tabulate(sizes(l + 1)) { i =>
          var s = b(l)(i)
          for (j <- in.indices) s += w(l)(i)(j) * in(j)
          if (l < L - 1 || outTanh) math.tanh(s) else s
        }
      }
      acts
    }

    def backward(acts: Array[Array[Double]], gradOut: Array[Double],
                 gw: Array[Array[Array[Double]]], gb: Array[Array[Double]]): Array[Double] = {
      var delta = gradOut.clone()
      for (l <- L - 1 to 0 by -1) {
        val act = acts(l + 1)
        val in = acts(l)
        if (l < L - 1 || outTanh) for (i <- delta.indices) delta(i) *= (1.0 - act(i) * act(i))
        val gIn = new Array[Double](in.length)
        for (i <- delta.indices) {
          val d = delta(i)
          gb(l)(i) += d
          for (j <- in.indices) { gw(l)(i)(j) += d * in(j); gIn(j) += w(l)(i)(j) * d }
        }
        delta = gIn
      }
      delta
    }

    def zeroGrads(): (Array[Array[Array[Double]]], Array[Array[Double]]) =
      (w.map(_.map(_.map(_ => 0.0))), b.map(_.map(_ => 0.0)))

    def adamStep(gw: Array[Array[Array[Double]]], gb: Array[Array[Double]], lr: Double): Unit = {
      t += 1
      val b1 = 0.9; val b2 = 0.999; val eps = 1e-8
      val c1 = 1 - math.pow(b1, t); val c2 = 1 - math.pow(b2, t)
      for (l <- 0 until L; i <- w(l).indices) {
        for (j <- w(l)(i).indices) {
          val g = gw(l)(i)(j)
          mw(l)(i)(j) = b1 * mw(l)(i)(j) + (1 - b1) * g
          vw(l)(i)(j) = b2 * vw(l)(i)(j) + (1 - b2) * g * g
          w(l)(i)(j) -= lr * (mw(l)(i)(j) / c1) / (math.sqrt(vw(l)(i)(j) / c2) + eps)
        }
        val g = gb(l)(i)
        mb(l)(i) = b1 * mb(l)(i) + (1 - b1) * g
        vb(l)(i) = b2 * vb(l)(i) + (1 - b2) * g * g
        b(l)(i) -= lr * (mb(l)(i) / c1) / (math.sqrt(vb(l)(i) / c2) + eps)
      }
    }

    def softUpdateFrom(src: ReferenceMlp, tau: Double): Unit =
      for (l <- 0 until L; i <- w(l).indices) {
        for (j <- w(l)(i).indices)
          w(l)(i)(j) = tau * src.w(l)(i)(j) + (1 - tau) * w(l)(i)(j)
        b(l)(i) = tau * src.b(l)(i) + (1 - tau) * b(l)(i)
      }
  }

  /** `Ddpg.train` as it was before transitions were deduplicated: every
    * draw runs all five passes and both backward passes, and the actor
    * step's critic parameter gradients go to a scratch set.
    */
  final class ReferenceDdpg(seed: Long) {
    private val (gamma, tau, batch, stateDim, actionDim) = (0.9, 0.05, 16, 11, 4)
    private val rnd = new scala.util.Random(seed)
    val actor = new ReferenceMlp(Array(stateDim, 64, 64, actionDim), outTanh = true, seed)
    val critic = new ReferenceMlp(Array(stateDim + actionDim, 64, 64, 1), outTanh = false, seed + 1)
    val actorT = new ReferenceMlp(Array(stateDim, 64, 64, actionDim), outTanh = true, seed + 2)
    val criticT = new ReferenceMlp(Array(stateDim + actionDim, 64, 64, 1), outTanh = false, seed + 3)
    actorT.softUpdateFrom(actor, 1.0); criticT.softUpdateFrom(critic, 1.0)
    val replay = scala.collection.mutable.ArrayBuffer.empty[(Array[Double], Array[Double], Double, Array[Double])]

    def train(): Unit = {
      if (replay.size < 4) return
      val (gwC, gbC) = critic.zeroGrads()
      val (gwA, gbA) = actor.zeroGrads()
      val (gwX, gbX) = critic.zeroGrads()
      val n = math.min(batch, replay.size)
      for (_ <- 0 until n) {
        val (s, a, r, s2) = replay(rnd.nextInt(replay.size))
        val a2 = actorT.forward(s2).last
        val q2 = criticT.forward(s2 ++ a2).last(0)
        val y = r + gamma * q2
        val ct = critic.forward(s ++ a)
        val err = ct.last(0) - y
        critic.backward(ct, Array(2.0 * err / n), gwC, gbC)
        val at = actor.forward(s)
        val cQ = critic.forward(s ++ at.last)
        val gIn = critic.backward(cQ, Array(-1.0 / n), gwX, gbX)
        actor.backward(at, gIn.drop(stateDim), gwA, gbA)
      }
      critic.adamStep(gwC, gbC, lr = 1e-2)
      actor.adamStep(gwA, gbA, lr = 1e-3)
      actorT.softUpdateFrom(actor, tau)
      criticT.softUpdateFrom(critic, tau)
    }
  }
}
