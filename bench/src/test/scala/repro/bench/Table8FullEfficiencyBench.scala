package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments.{Linear, Pruning}
import repro.exp.Tables

/** Table 8 (appendix D.1) — the four design choices crossed with all four
  * embedding methods (Starmie, SATO, Sherlock, SingleCol) on SANTOS Small.
  * Paper shape: pruning preserves each method's scores exactly; indexes trade
  * some effectiveness for speed; Starmie dominates every baseline under the
  * same technique.
  */
class Table8FullEfficiencyBench extends AnyFunSuite {

  test("Table 8: efficiency techniques across all embedding methods") {
    val lake = BenchContext.santosSmall.lake
    val k    = BenchContext.santosSmall.profile.k
    val rows = Tables.table58(lake, BenchContext.santosSmallEmbeddings, k)
    println("\n=== Table 8 (measured) ===")
    println(Tables.renderT58(rows))

    val methods = rows.map(_.method).distinct
    assert(methods.toSet == Set("starmie", "sato", "sherlock", "singlecol"))

    methods.foreach { m =>
      val mr = rows.filter(_.method == m).map(r => r.technique -> r).toMap
      // Pruning preserves the performance scores perfectly (paper, D.1)
      assert(math.abs(mr(Linear).map - mr(Pruning).map) < 1e-9, s"$m pruning exactness")
      assert(math.abs(mr(Linear).p - mr(Pruning).p) < 1e-9)
    }

    // Starmie ≥ every baseline under the exact techniques
    Seq(Linear, Pruning).foreach { tech =>
      val at = rows.filter(_.technique == tech).map(r => r.method -> r.map).toMap
      Seq("sato", "sherlock", "singlecol").foreach { b =>
        assert(at("starmie") >= at(b),
          s"starmie should dominate $b under ${tech.name}: ${at("starmie")} vs ${at(b)}")
      }
    }
  }
}
