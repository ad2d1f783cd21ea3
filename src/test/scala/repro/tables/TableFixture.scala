package repro.tables

import repro.sim.{Hardware, Simulator}

/** Shared fixture of the per-table suites. Table 8 (every policy × every
  * app) is the expensive computation, so it is computed once per JVM.
  */
object TableFixture {
  val hw: Hardware = Hardware.ClusterA
  val sim: Simulator = new Simulator(hw)
  lazy val t8: Tables.Table8Result = Tables.table8(sim)
}
