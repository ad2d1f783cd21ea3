package repro.tables

import org.scalatest.funsuite.AnyFunSuite

/** Paper Table 5: manual tuning of PageRank (Sec 3.5).
  *
  * Paper rows (Containers, P, Cache, NR → runtime, H, GC):
  *   1,2,0.6,2 → 66 min (aborted), H 0.30, GC 0.28
  *   1,1,0.6,2 → 59 min,           H 0.32, GC 0.14
  *   1,2,0.4,2 → 49 min,           H 0.19, GC 0.12
  *   1,2,0.6,5 → 53 min,           H 0.33, GC 0.27
  * The assertions check the qualitative structure: the default aborts, the
  * three fixes are reliable, lowering cache is the fastest fix, and raising
  * NewRatio trades GC overhead for reliability.
  */
class Table5ManualTuningSpec extends AnyFunSuite {

  private lazy val rows = Tables.table5()

  test("Table 5 rows print with runtime, hit ratio and GC overheads") {
    assert(rows.size == 4)
  }

  test("row 1 (default): the run aborts like the paper's 66-minute death") {
    assert(rows(0).aborted)
  }

  test("rows 2-4: each manual fix yields a reliable execution") {
    for (r <- rows.drop(1)) assert(!r.aborted, r)
  }

  test("row 3 (lower cache) is the fastest fix despite the lower hit ratio") {
    val fixes = rows.drop(1)
    assert(fixes(1).runtimeSec == fixes.map(_.runtimeSec).min)
    assert(fixes(1).profile.hitRatio < fixes(0).profile.hitRatio)
  }

  test("row 4 (NewRatio 5) prevents kills but pays GC versus row 3 (Obs 6)") {
    assert(rows(3).safe)
    assert(rows(3).gcOverhead > rows(2).gcOverhead)
  }

  test("cache hit ratio of the default row is near the paper's 0.3") {
    assert(math.abs(rows(0).profile.hitRatio - 0.3) < 0.1)
  }
}
