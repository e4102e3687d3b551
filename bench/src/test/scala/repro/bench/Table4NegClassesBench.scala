package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Metrics
import repro.exp.{Experiments, Tables}

/** Table 4 — micro-benchmark: Starmie MAP on 470-table lakes with 25%
  * positives and 2–9 negative classes (drawn from TUS Small templates).
  * Paper: MAP@60 = 1.0 throughout; MAP@120 from .89 (2 classes) to ~.92-.95,
  * i.e., the false-negative effect of random negative sampling is small even
  * with very few classes.
  */
class Table4NegClassesBench extends AnyFunSuite {

  test("Table 4: effect of the number of negative classes") {
    val rows = Experiments.negativeClasses(BenchContext.tusSmall.lake,
                                           BenchContext.tusSmall.models.feat)
    println("\n=== Table 4 (measured) ===")
    println(Tables.renderT4(rows))

    assert(rows.map(_._1) == (2 to 9))
    // the paper's headline claim: assuming two random tables are
    // non-unionable is safe — MAP stays high even when only 2 negative
    // classes exist (maximal false-negative rate during training)
    rows.foreach { case (c, m60, m120) =>
      assert(m60 >= 0.70, s"MAP@60 with $c classes: $m60")
      assert(m120 >= 0.65, s"MAP@120 with $c classes: $m120")
    }
    // the extreme-few-classes end must not be catastrophically below the
    // best point of the sweep (paper: 0.89 at 2 classes vs ~0.95 peak)
    val first = rows.head._3
    val best  = rows.map(_._3).max
    assert(first >= best - 0.15, s"MAP@120 at 2 classes $first vs best $best")
  }
}
