package repro.opt

import repro.core.{QModel, StatsGenerator}
import repro.sim.MemoryConf
import scala.collection.mutable.ArrayBuffer

/** Deep Deterministic Policy Gradient tuner (paper Sec 5.3, Fig 15).
  *
  * State  = resource-usage metrics of the last run (the Table-6 statistics)
  *          plus the model-Q metrics, following the paper's GBO-inspired
  *          state design.
  * Action = continuous point in the 4-dim knob space, mapped to the grid.
  * Reward = CDBTune-style: compares performance against both the initial
  *          and the previous observation.
  * Actor/critic are tanh MLPs with target networks, replay buffer, and
  * Adam — a faithful, scaled-down CDBTune parameterization.
  */
final class Ddpg(space: ConfigSpace, maxNewSamples: Int = 10, seed: Long = 7L) {

  private val gamma = 0.9 // discount of the critic target
  private val tau = 0.05  // soft target-network update rate
  private val batch = 16  // replay minibatch size

  private val rnd = new scala.util.Random(seed)
  val stateDim = 11
  val actionDim = 4

  val actor = new Mlp(Array(stateDim, 64, 64, actionDim), outTanh = true, seed)
  val critic = new Mlp(Array(stateDim + actionDim, 64, 64, 1), outTanh = false, seed + 1)
  private[opt] val actorT = actor.copy()
  private[opt] val criticT = critic.copy()

  private case class Transition(s: Array[Double], a: Array[Double], r: Double, s2: Array[Double])
  private val replay = ArrayBuffer.empty[Transition]

  private[opt] def remember(s: Array[Double], a: Array[Double], r: Double, s2: Array[Double]): Unit =
    replay += Transition(s, a, r, s2)

  // Training scratch, reused by every step. A minibatch draws at most
  // `batch` distinct transitions; slot k holds the k-th one's replay index
  // and its backpropagated Q(s, a) and μ(s) traces, and `drawSlot` maps
  // each draw to its slot.
  private val gradC = critic.grads()
  private val gradA = actor.grads()
  private val slotIndex = new Array[Int](batch)
  private val drawSlot = new Array[Int](batch)
  private val qTraces = Array.fill(batch)(critic.trace())
  private val muTraces = Array.fill(batch)(actor.trace())
  private val targetMu = actorT.trace()
  private val targetQ = criticT.trace()
  private val qOfMu = critic.trace()

  /** Observation → normalized state vector. */
  def state(o: Observation): Array[Double] = {
    val st = StatsGenerator.fromRun(o.result)
    Array(
      st.cpuAvgPct / 100.0, st.diskAvgPct / 100.0,
      st.miMb / st.mhMb, st.mcMb / st.mhMb, st.msMb / st.mhMb,
      math.min(1.0, st.muMb / st.mhMb),
      st.h, st.s,
    ) ++ QModel.derive(st, o.conf).scaled
  }

  /** CDBTune reward: positive when beating the initial performance, scaled
    * by the change vs the previous step (paper Sec 5.3).
    */
  def reward(r0: Double, rPrev: Double, rNow: Double): Double = {
    val d0 = (r0 - rNow) / r0
    val dPrev = (rPrev - rNow) / rPrev
    if (d0 > 0) (math.pow(1 + d0, 2) - 1) * math.abs(1 + dPrev)
    else -(math.pow(1 - d0, 2) - 1) * math.abs(1 - dPrev)
  }

  /** One actor-critic update over a replay minibatch (public so Table 10
    * can time a single model-fitting step). The weights only change after
    * the minibatch, so a transition drawn twice is run and backpropagated
    * once; its gradients are still added once per draw, in draw order.
    */
  def train(): Unit = {
    if (replay.size < 4) return
    gradC.zero()
    gradA.zero()
    val n = math.min(batch, replay.size)
    var slots = 0
    var k = 0
    while (k < n) {
      val idx = rnd.nextInt(replay.size)
      var slot = 0
      while (slot < slots && slotIndex(slot) != idx) slot += 1
      if (slot == slots) {
        slotIndex(slot) = idx
        backprop(replay(idx), qTraces(slot), muTraces(slot), n)
        slots += 1
      }
      drawSlot(k) = slot
      k += 1
    }
    critic.accumulate(qTraces, drawSlot, n, gradC)
    actor.accumulate(muTraces, drawSlot, n, gradA)
    critic.adamStep(gradC, lr = 1e-2)
    actor.adamStep(gradA, lr = 1e-3)
    actorT.softUpdateFrom(actor, tau)
    criticT.softUpdateFrom(critic, tau)
  }

  /** Runs one transition's passes on a minibatch of `n` draws: backprops
    * the critic's squared TD error through `q` and −∂Q/∂a through `mu`.
    */
  private def backprop(tr: Transition, q: critic.Trace, mu: actor.Trace, n: Int): Unit = {
    // Critic target: y = r + γ Q'(s', μ'(s'))
    System.arraycopy(tr.s2, 0, targetMu.input, 0, stateDim)
    stateAction(tr.s2, actorT.forward(targetMu), targetQ.input)
    val y = tr.r + gamma * criticT.forward(targetQ)(0)
    stateAction(tr.s, tr.a, q.input)
    q.gradOut(0) = 2.0 * (critic.forward(q)(0) - y) / n
    critic.backprop(q, inputGrad = false)

    // Actor: ascend Q(s, μ(s)) — backprop −∂Q/∂a through the actor. Only
    // the critic's input gradient is used, so its parameters get none.
    System.arraycopy(tr.s, 0, mu.input, 0, stateDim)
    stateAction(tr.s, actor.forward(mu), qOfMu.input)
    critic.forward(qOfMu)
    qOfMu.gradOut(0) = -1.0 / n
    critic.backprop(qOfMu)
    System.arraycopy(qOfMu.deltas(0), stateDim, mu.gradOut, 0, actionDim)
    actor.backprop(mu, inputGrad = false)
  }

  private def stateAction(s: Array[Double], a: Array[Double], into: Array[Double]): Unit = {
    System.arraycopy(s, 0, into, 0, stateDim)
    System.arraycopy(a, 0, into, stateDim, actionDim)
  }

  /** Starts from the framework default configuration (paper Table 4). */
  def tune(env: TuningEnv): TuningTrace = {
    var prev = env.evaluate(MemoryConf.default(space.hw))
    val r0 = prev.objective
    var s = state(prev)
    var noise = 0.6
    var guard = 0
    def more = env.iterations < maxNewSamples + 1 && guard < maxNewSamples * 8
    while (more) {
      val aRaw = actor(s)
      val a = aRaw.map(v => math.max(-1.0, math.min(1.0, v + noise * rnd.nextGaussian())))
      val conf = space.fromUnit(a.map(v => (v + 1) / 2))
      val obs = env.evaluate(conf)
      val r = reward(r0, prev.objective, obs.objective)
      val s2 = state(obs)
      remember(s, a, r, s2)
      guard += 1
      // Training after the last action would feed nothing tune returns.
      if (more) (1 to 4).foreach(_ => train())
      s = s2
      prev = obs
      noise = math.max(0.1, noise * 0.92)
    }
    env.trace
  }

  /** Stored model size in bytes (Table 10's last row): actor+critic
    * parameters at 8 bytes each.
    */
  def modelSizeBytes: Long = 8L * (actor.paramCount + critic.paramCount)
}
