package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.exp.Experiments.{HnswIdx, Linear, Mode, Pruning}
import repro.exp.Tables

/** Figure 10 / §5.3 — query-time scalability of the four design choices as
  * the lake grows: SANTOS Large up to ~11k tables and a WDC-style sweep
  * (paper: to 50M tables; ours to REPRO_WDC_MAX, default 30k — DESIGN.md §2).
  * Paper shape: Linear/Pruning grow with lake size; LSH and HNSW stay nearly
  * flat; HNSW is fastest by a growing margin (220×–3,000× vs Linear).
  */
class Fig10ScalabilityBench extends AnyFunSuite {

  private def timeOf(rows: Seq[(Int, Mode, Double, Double)],
                     n: Int, mode: Mode): Double =
    rows.find(r => r._1 == n && r._2 == mode).get._3

  test("Fig 10a: scalability on SANTOS Large") {
    val lake  = BenchContext.santosLargeLake
    val sizes = Seq(1000, 3000, lake.tables.size).distinct
    val rows  = Experiments.scalability(lake, BenchContext.santosLargeStarmie,
                                        k = 10, sizes = sizes, nQueries = 10)
    println("\n=== Fig 10a (measured, SANTOS Large) ===")
    println(Tables.renderFig10(rows))

    val nMax = sizes.max
    // HNSW beats linear by a large factor at full size
    val speedup = timeOf(rows, nMax, Linear) / math.max(0.01, timeOf(rows, nMax, HnswIdx))
    println(f"HNSW speedup over Linear at $nMax tables: $speedup%.0f× (paper: 220×)")
    assert(speedup >= 5, s"HNSW speedup only $speedup×")
    // Linear grows with the lake
    assert(timeOf(rows, nMax, Linear) > timeOf(rows, sizes.min, Linear))
    // Pruning is never slower than Linear at full size (modulo timer noise)
    assert(timeOf(rows, nMax, Pruning) <= timeOf(rows, nMax, Linear) * 1.2)
  }

  test("Fig 10b/c: scalability on the WDC-style sweep") {
    val lake  = BenchContext.wdcLake
    val sizes = Seq(lake.tables.size / 10, lake.tables.size / 3, lake.tables.size).distinct
    val rows  = Experiments.scalability(lake, BenchContext.wdcStarmie,
                                        k = 10, sizes = sizes, nQueries = 8)
    println(s"\n=== Fig 10b/c (measured, WDC-style, max ${lake.tables.size} tables) ===")
    println(Tables.renderFig10(rows))

    val nMin = sizes.min; val nMax = sizes.max
    val hnswGrowth   = timeOf(rows, nMax, HnswIdx) / math.max(0.01, timeOf(rows, nMin, HnswIdx))
    val linearGrowth = timeOf(rows, nMax, Linear) / math.max(0.01, timeOf(rows, nMin, Linear))
    println(f"growth $nMin→$nMax tables: Linear ${linearGrowth}%.1f×, HNSW ${hnswGrowth}%.1f×")
    // HNSW query time is far flatter than Linear's as the lake grows
    assert(hnswGrowth < linearGrowth,
      s"HNSW growth $hnswGrowth should be flatter than Linear $linearGrowth")
    val speedup = timeOf(rows, nMax, Linear) / math.max(0.01, timeOf(rows, nMax, HnswIdx))
    println(f"HNSW speedup over Linear at $nMax tables: $speedup%.0f×")
    assert(speedup >= 10, s"HNSW speedup only $speedup× at $nMax tables")
  }
}
