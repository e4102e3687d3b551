package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Tables

/** Tables 9 & 10 — column clustering over a WDC-style corpus with ~78
  * ground-truth surface types; similarity graph + connected components;
  * purity at matched cluster counts.
  * Paper: Sherlock 30.50%, SATO 37.36%, Starmie 51.19% purity (≈2.3-2.5k
  * clusters each); Starmie-SingleCol fragments (9,252 clusters, 20.38%).
  * Shape: Starmie > SATO > Sherlock at matched counts.
  */
class Table10ClusteringBench extends AnyFunSuite {

  test("Tables 9/10: column clustering purity") {
    val res  = Tables.table10()
    val lake = res.lake
    val nSurfaces   = lake.colSurfaceType.values.toSet.size
    val nContextual = lake.colContextualType.values.toSet.size
    println(s"\nClustering corpus: ${lake.tables.size} tables, " +
            s"${lake.totalColumns} columns, $nSurfaces surface types / " +
            s"$nContextual contextual types " +
            "(paper: 119,360 columns, 78 coarse types; Table 9 shows the " +
            "clusters carry finer contextual semantics)")
    println("\n=== Table 10 (measured) ===")
    println(Tables.renderT10(res.rows))
    println("\n=== Table 9-style sample clusters (Starmie) ===")
    println(Tables.renderT9(lake, res.starmie))

    val byMethod = res.rows.map(r => r.method -> r).toMap
    assert(byMethod("starmie").purity > byMethod("sato").purity,
      s"starmie ${byMethod("starmie").purity} vs sato ${byMethod("sato").purity}")
    assert(byMethod("starmie").purity > byMethod("sherlock").purity)
    assert(byMethod("starmie").purity > byMethod("singlecol").purity,
      "contextualization should pay off at matched cluster counts")
    assert(byMethod("starmie").purity > 0.45, "starmie purity should be substantial")
    res.rows.foreach(r => assert(r.nClusters > 1 && r.purity > 0 && r.purity <= 1))
  }
}
