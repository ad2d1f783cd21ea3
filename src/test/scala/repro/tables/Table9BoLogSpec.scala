package repro.tables

import org.scalatest.funsuite.AnyFunSuite

/** Paper Table 9: the log of one BO run for SVM — 4 LHS bootstrap samples
  * ("sample 0") followed by adaptive probes until the stopping rule fires.
  */
class Table9BoLogSpec extends AnyFunSuite {

  private lazy val log = Tables.table9()

  test("Table 9 prints the BO run log for SVM") {
    assert(log.nonEmpty)
  }

  test("the run starts with exactly 4 LHS samples") {
    assert(log.count(_._1 == 0) == 4)
  }

  test("at least 6 adaptive samples follow (CherryPick stopping rule)") {
    assert(log.count(_._1 > 0) >= 6)
  }

  test("the best-so-far runtime is non-increasing over the adaptive phase") {
    val objs = log.map(_._2.objective)
    val bestSoFar = objs.scanLeft(Double.MaxValue)(math.min).tail
    assert(bestSoFar.zip(bestSoFar.tail).forall { case (a, b) => b <= a })
  }

  test("adaptive probes concentrate: the final best beats the LHS best") {
    val lhsBest = log.filter(_._1 == 0).map(_._2.objective).min
    val finalBest = log.map(_._2.objective).min
    assert(finalBest <= lhsBest)
  }

  test("all probed configurations are distinct (memoized environment)") {
    assert(log.map(_._2.conf).distinct.size == log.size)
  }
}
