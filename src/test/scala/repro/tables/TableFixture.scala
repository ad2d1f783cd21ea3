package repro.tables

/** Shared fixture of the per-table suites. Table 8 (every policy × every
  * app) is the expensive computation, so it is computed once per JVM.
  */
object TableFixture {
  lazy val t8: Tables.Table8Result = Tables.table8()
}
