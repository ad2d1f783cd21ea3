package repro.opt

import repro.sim.{AppModel, Hardware, MemoryConf}

/** The discretized knob space the black-box tuners explore (paper Sec 6.1):
  * Containers-per-Node × Task Concurrency × dominant-pool Capacity ×
  * NewRatio. Only the dominant pool (cache or shuffle, by the application's
  * use) is tuned; the minor pool is pinned to 0.1.
  */
final class ConfigSpace(val hw: Hardware, val app: AppModel) {

  val minorCap: Double = 0.1
  val capGrid: Seq[Double] = (1 to 16).map(_ * 0.05) // 0.05 .. 0.80
  val nrGrid: Seq[Int] = 1 to 9

  /** Materialize a point as a MemoryConf, routing the tuned capacity to the
    * application's dominant pool.
    */
  def conf(n: Int, p: Int, cap: Double, nr: Int): MemoryConf =
    if (app.usesCache) MemoryConf.of(hw, n, p, cacheCap = cap, shuffleCap = minorCap, newRatio = nr)
    else MemoryConf.of(hw, n, p, cacheCap = 0.0, shuffleCap = cap, newRatio = nr)

  /** Full candidate grid for acquisition maximization. */
  lazy val all: Vector[MemoryConf] =
    (for {
      n <- hw.containerChoices
      p <- 1 to hw.maxConcurrency(n)
      cap <- capGrid
      nr <- nrGrid
    } yield conf(n, p, cap, nr)).toVector

  /** Each grid point's first index in `all`. A space often serves one
    * tuning session, so building the map must cost less than the scans it
    * saves; a presized Java map does, an immutable Map did not.
    */
  private lazy val index: java.util.HashMap[MemoryConf, Integer] = {
    val m = new java.util.HashMap[MemoryConf, Integer](2 * all.size)
    all.indices.foreach(i => m.putIfAbsent(all(i), i))
    m
  }

  /** `c`'s index in `all`, or −1 when `c` is off the grid. */
  def indexOf(c: MemoryConf): Int = index.getOrDefault(c, -1)

  /** Normalized feature encoding of a point for the GP surrogate. */
  def encode(c: MemoryConf): Array[Double] = Array(
    c.containersPerNode.toDouble / hw.containerChoices.max,
    c.taskConcurrency.toDouble / hw.coresPerNode,
    math.max(c.cacheCap, c.shuffleCap),
    c.newRatio.toDouble / 9.0,
  )

  /** Map unit-cube coordinates to a grid point (used by LHS and DDPG). */
  def fromUnit(u: Array[Double]): MemoryConf = {
    def pick[T](xs: Seq[T], x: Double): T =
      xs(math.min(xs.size - 1, math.max(0, (x * xs.size).toInt)))
    val n = pick(hw.containerChoices, u(0))
    val p = pick(1 to hw.maxConcurrency(n), u(1))
    val cap = pick(capGrid, u(2))
    val nr = pick(nrGrid, u(3))
    conf(n, p, cap, nr)
  }

  /** Latin Hypercube Sampling (paper Table 7): k samples over d=4 dims, one
    * per stratum per dimension — near-random with guaranteed coverage.
    */
  def lhs(k: Int, seed: Long): Vector[MemoryConf] = {
    val rnd = new scala.util.Random(seed)
    val strata = Array.fill(4)(rnd.shuffle((0 until k).toVector))
    (0 until k).map { i =>
      val u = Array.tabulate(4)(d => (strata(d)(i) + rnd.nextDouble()) / k)
      fromUnit(u)
    }.toVector
  }
}
