package repro.tables

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.TableJob

/** Every deterministic table renders byte for byte as committed in
  * `src/test/resources/tables.golden`: each `TableJob` entry but Table 10
  * (whose cells are machine-dependent timings), in `TableJob`'s order, each
  * followed by a newline as `TableJob` prints it.
  */
class TablesGoldenSpec extends AnyFunSuite {

  test("Tables 4-9 and Fig 21 render byte-identical to tables.golden") {
    val actual = TableJob.tables.collect { case (name, render) if name != "table10" => render() + "\n" }
      .mkString.getBytes(UTF_8)
    val golden = getClass.getResourceAsStream("/tables.golden").readAllBytes()
    if (!java.util.Arrays.equals(actual, golden)) {
      // The regeneration path: review the diff, then copy this file over the golden.
      val out = Paths.get("target", "tables.actual").toAbsolutePath
      Files.createDirectories(out.getParent)
      Files.write(out, actual)
      fail(s"rendered tables differ from src/test/resources/tables.golden; actual render written to $out")
    }
  }
}
