package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Tables
import repro.lake.Benchmarks

/** Table 2 — benchmark statistics at our (documented) local scale.
  * Paper: SANTOS Small 550 tables / 6,322 cols; TUS Small 1,530 / 14,810;
  * TUS Large 5,043 / 54,923; SANTOS Large 11,090 / 123,477; WDC 50M / 250M.
  */
class Table2StatsBench extends AnyFunSuite {

  test("Table 2: corpus statistics") {
    val profiles = Benchmarks.effectiveness :+
      BenchContext.santosLargeProfile :+ BenchContext.wdcProfile
    val rows = Tables.table2(profiles)
    println("\n=== Table 2 (measured) ===")
    println(Tables.renderT2(rows))

    val byName = rows.map(r => r.name -> r).toMap
    assert(byName("santosSmall").tables == 546)
    assert(byName("tusSmall").tables == 1530)
    assert(byName("tusLarge").tables == 5024)
    // column counts scale with the paper's ratio of roughly 10 cols/table on
    // TUS and ~6-11 on SANTOS; just require the ordering and positive sizes
    assert(rows.forall(_.cols > 0))
    assert(byName("tusLarge").cols > byName("tusSmall").cols)
    assert(byName("tusSmall").cols > byName("santosSmall").cols)
  }
}
