package repro.jobs

import scala.collection.immutable.ListMap
import repro.tables.Tables

/** spark-submit entrypoint for the reproduced tables (see DESIGN.md): prints
  * the table named by its one argument. It is a driver-only program (the
  * cluster substrate is the simulator), so it runs equally under
  * `spark-submit --class repro.jobs.TableJob <jar> table8` or
  * `sbt "runMain repro.jobs.TableJob table8"`.
  */
object TableJob {
  private[repro] val tables: ListMap[String, () => String] = ListMap(
    "table4" -> (() => Tables.renderTable4(Tables.table4())),
    "table5" -> (() => Tables.renderTable5(Tables.table5())),
    "table6" -> (() => Tables.renderTable6(Tables.table6())),
    "table7" -> (() => Tables.renderTable7(Tables.table7())),
    "table8" -> (() => Tables.renderTable8(Tables.table8())),
    "table9" -> (() => Tables.renderTable9(Tables.table9())),
    "table10" -> (() => Tables.renderTable10(Tables.table10())),
    "fig21" -> (() => Tables.renderFig21(Tables.tpchHeadline())),
  )

  def main(args: Array[String]): Unit = args match {
    case Array(name) if tables.contains(name) => println(tables(name)())
    case _ =>
      System.err.println(s"usage: TableJob <${tables.keys.mkString("|")}>")
      sys.exit(2)
  }
}
