package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.exp.Experiments.{HnswIdx, Linear, Mode, Pruning, Sweep}
import repro.exp.Tables

/** Figure 10 / §5.3 — query-time scalability of the four design choices as
  * the lake grows: SANTOS Large up to ~11k tables and a WDC-style sweep
  * (paper: to 50M tables; ours to REPRO_WDC_MAX, default 30k — DESIGN.md §2).
  * Paper shape: Linear/Pruning grow with lake size; LSH and HNSW stay nearly
  * flat; HNSW is fastest by a growing margin (220×–3,000× vs Linear).
  */
class Fig10ScalabilityBench extends AnyFunSuite {

  private lazy val (santosLarge, wdc) =
    Experiments.scalability(BenchContext.santosLargeTables, BenchContext.wdcMaxTables)

  private def timeOf(sweep: Sweep, n: Int, mode: Mode): Double =
    sweep.rows.find(r => r.size == n && r.mode == mode).get.queryMs

  test("Fig 10a: scalability on SANTOS Large") {
    println("\n=== Fig 10a (measured, SANTOS Large) ===")
    println(Tables.renderFig10(santosLarge))

    val sizes = santosLarge.rows.map(_.size)
    val nMax = sizes.max
    // HNSW beats linear by a large factor at full size
    val speedup = timeOf(santosLarge, nMax, Linear) / math.max(0.01, timeOf(santosLarge, nMax, HnswIdx))
    println(f"HNSW speedup over Linear at $nMax tables: $speedup%.0f× (paper: 220×)")
    assert(speedup >= 5, s"HNSW speedup only $speedup×")
    // Linear grows with the lake
    assert(timeOf(santosLarge, nMax, Linear) > timeOf(santosLarge, sizes.min, Linear))
    // Pruning is never slower than Linear at full size (modulo timer noise)
    assert(timeOf(santosLarge, nMax, Pruning) <= timeOf(santosLarge, nMax, Linear) * 1.2)
  }

  test("Fig 10b/c: scalability on the WDC-style sweep") {
    val sizes = wdc.rows.map(_.size)
    val nMin = sizes.min; val nMax = sizes.max
    println(s"\n=== Fig 10b/c (measured, WDC-style, max $nMax tables) ===")
    println(Tables.renderFig10(wdc))

    val hnswGrowth   = timeOf(wdc, nMax, HnswIdx) / math.max(0.01, timeOf(wdc, nMin, HnswIdx))
    val linearGrowth = timeOf(wdc, nMax, Linear) / math.max(0.01, timeOf(wdc, nMin, Linear))
    println(f"growth $nMin→$nMax tables: Linear ${linearGrowth}%.1f×, HNSW ${hnswGrowth}%.1f×")
    // HNSW query time is far flatter than Linear's as the lake grows
    assert(hnswGrowth < linearGrowth,
      s"HNSW growth $hnswGrowth should be flatter than Linear $linearGrowth")
    val speedup = timeOf(wdc, nMax, Linear) / math.max(0.01, timeOf(wdc, nMax, HnswIdx))
    println(f"HNSW speedup over Linear at $nMax tables: $speedup%.0f×")
    assert(speedup >= 10, s"HNSW speedup only $speedup× at $nMax tables")
  }
}
