package repro.tables

import org.scalatest.funsuite.AnyFunSuite

/** Paper Table 6: statistics derived from the PageRank default profile.
  * Paper values: N=1, M_h=4404MB, CPU 35%, Disk 2%, M_i=115MB, M_c=2300MB,
  * M_s=0MB, M_u=770MB, P=2, H=0.3, S=0.
  */
class Table6StatsSpec extends AnyFunSuite {

  private lazy val st = Tables.table6()

  test("Table 6 prints the statistics vector next to the paper's") {
    val notations = Tables.renderTable6(st).linesIterator.drop(3).map(_.split('|')(1).trim).toSeq
    assert(notations == Seq("N", "M_h", "CPU_avg", "Disk_avg", "M_i", "M_c", "M_s", "M_u", "P", "H", "S"))
  }

  test("container configuration matches the profiled default") {
    assert(st.n == 1 && st.mhMb == 4404.0 && st.p == 2)
  }

  test("resource statistics land near the paper's readings") {
    assert(math.abs(st.cpuAvgPct - 35) < 5)
    assert(st.diskAvgPct < 6)
  }

  test("memory-pool statistics land near the paper's readings") {
    assert(math.abs(st.miMb - 115) / 115 < 0.10)
    assert(math.abs(st.mcMb - 2300) / 2300 < 0.15) // ours: capacity-bound 2462
    assert(st.msMb == 0.0)
    assert(math.abs(st.muMb - 770) / 770 < 0.05)
  }

  test("cache hit ratio and spillage match (H=0.3, S=0)") {
    assert(math.abs(st.h - 0.3) < 0.05)
    assert(st.s == 0.0)
  }

  test("the profile contains full-GC events, so M_u is trustworthy (Sec 4.1)") {
    assert(st.hasFullGc)
  }
}
