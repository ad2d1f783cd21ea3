package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.io.File
import repro.core.{QModel, RelM}
import repro.linalg.LinAlg
import repro.opt._
import repro.sim.{AppModel, Hardware, MemoryConf, Simulator}
import repro.tables.Tables
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Every tuning policy on every Cluster-A application, over four tuner
  * seeds per pass, in the order `Tables.table8` runs them. Pure JVM CPU:
  * the GP sweeps and DDPG training of `repro.opt` do nearly all the work.
  * One op is one application under one tuner seed with all five policies
  * (a row group of Table 8); each policy session is one of its parts.
  *
  * Checks: every RelM pick is safe (Fig 17), and every recommendation, its
  * iteration count and its simulated runtime equal the committed
  * `Tables.table8` rows of [[TuneTable8.referenceFile]] (and the run's first
  * pass, checked by the caller).
  */
final class TuneTable8(seed: Long) extends Workload {
  import TuneTable8._

  val sim = new Simulator(Hardware.ClusterA)
  val hw: Hardware = sim.hw
  val apps: Seq[AppModel] = AppModel.clusterASuite
  val block: Int = Math.floorMod(seed, blocks.toLong).toInt
  val seeds: Seq[Long] = tunerSeeds(block)

  /** (seed, app, policy) → committed row. */
  private var reference = Map.empty[(Long, String, String), Row]
  /** (policy, app, seed) → (pick's simulated runtime, best safe exhaustive runtime), in minutes. */
  private val quality = mutable.LinkedHashMap.empty[(String, String, Long), (Double, Double)]

  def env: Map[String, Any] = Map("cluster" -> hw.name, "block" -> block, "tuner_seeds" -> seeds,
    "java.version" -> System.getProperty("java.version"))

  override def extras: Map[String, Any] = Map(
    "quality" -> quality.map { case ((p, a, s), (pick, best)) =>
      Map("policy" -> p, "app" -> a, "seed" -> s, "pick_min" -> pick, "best_safe_min" -> best)
    })

  def setup(rec: Recorder): Unit =
    reference = new ObjectMapper().readTree(referenceFile).get("rows").elements.asScala.map { r =>
      (r.get("seed").asLong, r.get("app").asText, r.get("policy").asText) ->
        Row(r.get("conf").asText, r.get("iterations").asInt, r.get("runtime_min").asDouble,
          Option(r.get("best_safe_min")).map(_.asDouble))
    }.toMap

  def pass(rec: Recorder): PassResult = {
    val t0 = System.nanoTime()
    val ops = Vector.newBuilder[Op]
    val sessions = Vector.newBuilder[Op]
    val counts = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    def count(k: String, v: Double): Unit = counts(k) = counts(k) + v
    var relmSessions = 0

    for (s <- seeds; app <- apps) {
      sessions.clear()
      val space = new ConfigSpace(hw, app)
      def check(policy: String, got: Row): String = {
        val want = reference.getOrElse((s, app.name, policy),
          sys.error(s"$referenceFile has no $policy row for ${app.name}/seed $s"))
        require(got == want, s"$policy/${app.name}/seed $s: $got differs from the reference $want")
        s"${got.conf} iters=${got.iterations}"
      }

      var bestSafe = Double.NaN
      sessions += Main.op(rec, "exhaustive", attach = true) {
        val env = new TuningEnv(app, sim, s)
        val tr = Exhaustive.tune(space, env)
        count("sim.run_calls", env.iterations)
        bestSafe = env.history.filter(_.result.safe).map(_.result.runtimeMin).min
        (check("Exhaustive", Row.of(tr, Some(bestSafe))), () => replaySim(rec, app, env, s))
      }
      def recordQuality(policy: String, pickMin: Double): Unit =
        quality((policy, app.name, s)) = (pickMin, bestSafe)

      sessions += Main.op(rec, "ddpg", attach = true) {
        val env = new TuningEnv(app, sim, s)
        val ddpg = new Ddpg(space, maxNewSamples = 10, seed = s + 7)
        val tr = ddpg.tune(env)
        count("sim.run_calls", env.iterations)
        count("stress_tests", tr.iterations)
        recordQuality("ddpg", tr.best.result.runtimeMin)
        (check("DDPG", Row.of(tr)), () => {
          replaySim(rec, app, env, s)
          for (o <- env.history) {
            val st = ddpg.state(o)
            rec.span("opt.ddpg_act", "opt.ddpg_act_us", 1e-3)(ddpg.actor(st))
          }
          // Four training steps per new sample: a lower bound on what
          // Ddpg.tune ran, since it also trains on iterations whose action
          // hits the TuningEnv cache.
          for (_ <- 1 until env.history.size; _ <- 1 to 4)
            rec.span("opt.ddpg_train", "opt.ddpg_train_ms")(ddpg.train())
        })
      }

      sessions += Main.op(rec, "bo", attach = true) {
        val env = new TuningEnv(app, sim, s)
        val bo = new BayesOpt(space, guide = None, seed = s + 42)
        val tr = bo.tune(env)
        count("sim.run_calls", env.iterations)
        count("stress_tests", tr.iterations)
        recordQuality("bo", tr.best.result.runtimeMin)
        (check("BO", Row.of(tr)), () => replayBo(rec, app, space, bo, env, s))
      }

      sessions += Main.op(rec, "gbo", attach = true) {
        val (stats, profiles) = RelM.gatherStats(app, sim, MemoryConf.default(hw), s)
        val env = new TuningEnv(app, sim, s)
        val gbo = new BayesOpt(space, guide = Some(stats), seed = s + 42)
        val tr = gbo.tune(env)
        count("sim.run_calls", env.iterations + profiles.size)
        count("stress_tests", tr.iterations)
        recordQuality("gbo", tr.best.result.runtimeMin)
        (check("GBO", Row.of(tr)), () => {
          rec.span("core.gather_stats", "core.gather_stats_us", 1e-3)(
            RelM.gatherStats(app, sim, MemoryConf.default(hw), s))
          val all = space.all
          rec.span("core.qmodel") {
            val t = System.nanoTime()
            all.foreach(c => QModel.derive(stats, c))
            rec.sample("core.qmodel_us", (System.nanoTime() - t) / 1e3 / all.size)
          }
          replayBo(rec, app, space, gbo, env, s)
        })
      }

      sessions += Main.op(rec, "relm", attach = true) {
        val relm = RelM.tune(app, sim, s)
        val obs = new TuningEnv(app, sim, s).evaluate(relm.recommended)
        require(obs.result.safe, s"RelM pick for ${app.name}/seed $s is unsafe: ${obs.result}")
        count("sim.run_calls", relm.profileRuns.size + 1)
        count("stress_tests", relm.profileRuns.size)
        count("core.arbitrator_iterations", relm.candidates.map(_.iterations).sum)
        count("core.reprofiles", relm.profileRuns.size - 1)
        relmSessions += 1
        recordQuality("relm", obs.result.runtimeMin)
        (check("RelM", Row(relm.recommended.toString, relm.profileRuns.size, obs.result.runtimeMin)), () => {
          val (stats, runs) = rec.span("core.gather_stats", "core.gather_stats_us", 1e-3)(
            RelM.gatherStats(app, sim, MemoryConf.default(hw), s))
          runs.foreach(r => rec.sample("sim.probe_failed", if (r.safe) 0.0 else 1.0))
          rec.span("core.candidates", "core.candidates_us", 1e-3)(RelM.candidates(stats, hw))
          rec.span("sim.run", "sim.run_us", 1e-3)(sim.run(app, relm.recommended, s))
        })
      }
      val ss = sessions.result()
      ops += Op(s"${app.name}/$s", ss.map(_.ms).sum, ss.forall(_.ok), ss.map(_.signature).mkString(" | "),
        ss.map(_.error).filter(_.nonEmpty).mkString(" | "), ss.map(o => o.name -> o.ms).toMap)
    }
    counts("core.reprofile_frac") = counts("core.reprofiles") / relmSessions
    val wall = (System.nanoTime() - t0) / 1e6 - rec.takeReplayMs()
    PassResult(rec.tracing, wall, ops.result(), counts.toMap, Map.empty)
  }

  /** `Simulator.run` over a session's history, with the seeds `TuningEnv`
    * gave each probe.
    */
  private def replaySim(rec: Recorder, app: AppModel, env: TuningEnv, s: Long): Unit =
    env.history.zipWithIndex.foreach { case (o, i) =>
      val r = rec.span("sim.run", "sim.run_us", 1e-3)(sim.run(app, o.conf, s + i))
      rec.sample("sim.probe_failed", if (r.safe) 0.0 else 1.0)
    }

  /** The GP fit and predict+EI sweep BO ran for each history prefix after
    * its LHS bootstrap, plus the bootstrap itself.
    */
  private def replayBo(rec: Recorder, app: AppModel, space: ConfigSpace, bo: BayesOpt,
                       env: TuningEnv, s: Long): Unit = {
    replaySim(rec, app, env, s)
    val nInit = rec.span("opt.lhs", "opt.lhs_us", 1e-3)(space.lhs(4, s + 42)).distinct.size
    val hist = env.history
    for (k <- nInit until hist.size) {
      val prefix = hist.take(k)
      val x = prefix.map(o => bo.features(o.conf)).toArray
      val y = prefix.map(_.objective).toArray
      val gp = new GaussianProcess()
      rec.span("opt.gp_fit", "opt.gp_fit_ms")(gp.fit(x, y))
      val kMat = Array.tabulate(x.length, x.length)((i, j) => gp.kernel(x(i), x(j)) + (if (i == j) 1e-3 else 0.0))
      rec.span("linalg.cholesky", "linalg.cholesky_us", 1e-3)(LinAlg.cholesky(kMat))
      val seen = prefix.map(_.conf).toSet
      val cands = space.all.filterNot(seen.contains)
      val tau = y.min
      rec.span("opt.ei_sweep", "opt.ei_sweep_ms") {
        cands.iterator.map { c => val (m, sd) = gp.predict(bo.features(c)); bo.expectedImprovement(m, sd, tau) }.max
      }
      rec.sample("opt.gp_predicts", cands.size)
    }
  }
}

object TuneTable8 {
  /** The committed reference: `Tables.table8`'s rows for every tuner seed
    * of every block, written by `python3 perfbench/reference.py`.
    */
  val referenceFile = new File("perfbench/reference/table8.json")
  /** A run's `--seed` picks one of this many blocks of tuner seeds. */
  val blocks = 8

  def tunerSeeds(block: Int): Seq[Long] = (0 until 4).map(i => block * 4L + i)

  /** A policy's output as `Tables.table8` reports it: the recommendation,
    * the stress tests paid, the simulated runtime of the pick, and for
    * Exhaustive the best safe runtime it found (minutes).
    */
  final case class Row(conf: String, iterations: Int, runtimeMin: Double, bestSafeMin: Option[Double] = None)

  object Row {
    def of(tr: TuningTrace, bestSafeMin: Option[Double] = None): Row =
      Row(tr.recommended.toString, tr.iterations, tr.best.result.runtimeMin, bestSafeMin)
  }

  /** Writes [[referenceFile]]'s rows, with `Tables.table8`, to the given file.
    * {{{
    * perfbench.TuneTable8 <out.json>
    * }}}
    */
  def main(args: Array[String]): Unit = {
    val sim = new Simulator(Hardware.ClusterA)
    val rows = for (b <- 0 until blocks; s <- tunerSeeds(b); t = Tables.table8(sim, s); r <- t.rows) yield {
      val best = if (r.policy != "Exhaustive") Map.empty else
        Map("best_safe_min" -> t.exhaustive(r.app).history.filter(_.result.safe).map(_.result.runtimeMin).min)
      Map("block" -> b, "seed" -> s, "app" -> r.app, "policy" -> r.policy, "conf" -> r.conf.toString,
        "iterations" -> r.iterations, "runtime_min" -> r.runtimeMin) ++ best
    }
    new ObjectMapper().registerModule(DefaultScalaModule).writeValue(new File(args(0)), Map("rows" -> rows))
  }
}
