package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments.{HnswIdx, Linear, Lsh, Pruning}
import repro.exp.Tables

/** Table 5 — effectiveness/efficiency of the four design choices for Starmie
  * on SANTOS Small, plus the §5.3 pruning verification-count comparison.
  * Paper: Linear .993 MAP / 96 s; Pruning .993 / 61 s; LSH .932 / 12 s;
  * HNSW .945 / 4 s. Pruning cut verifications 550 → 342 (38%).
  */
class Table5DesignChoicesBench extends AnyFunSuite {

  private lazy val rows   = Tables.table5(BenchContext.santosSmall)
  private lazy val byTech = rows.map(r => r.technique -> r).toMap

  test("Table 5: design choices for Starmie on SANTOS Small") {
    println("\n=== Table 5 (measured, Starmie rows) ===")
    println(Tables.renderT58(rows))

    // pruning is exact: identical effectiveness to linear
    assert(math.abs(byTech(Linear).map - byTech(Pruning).map) < 1e-9)
    assert(math.abs(byTech(Linear).r - byTech(Pruning).r) < 1e-9)
    // approximate indexes lose only bounded effectiveness
    assert(byTech(HnswIdx).map >= byTech(Linear).map - 0.2)
    assert(byTech(Lsh).map >= byTech(Linear).map - 0.35)
    // at 546 tables the index advantage is within timer noise (the paper's
    // large factors appear at scale — asserted in Fig10ScalabilityBench);
    // here only require the indexes not to be materially slower
    assert(byTech(HnswIdx).queryMs <= byTech(Linear).queryMs * 2)
    assert(byTech(Lsh).queryMs <= byTech(Linear).queryMs * 2)
  }

  test("§5.3: pruning reduces verification count vs linear") {
    val lin = byTech(Linear); val prn = byTech(Pruning)
    println(f"\nAvg verifications/query: Linear=${lin.verifications}%.0f " +
            f"Pruning=${prn.verifications}%.0f " +
            f"(${100 * (1 - prn.verifications / lin.verifications)}%.0f%% reduction; " +
            "paper: 550 → 342, 38%)")
    assert(prn.verifications < lin.verifications * 0.9,
      "pruning should remove a material share of verifications")
    assert(math.abs(prn.map - lin.map) < 1e-9)
  }
}
