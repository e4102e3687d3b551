package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{Experiments, Tables}
import repro.exp.Experiments.{HnswIdx, Lsh}

/** Table 6 — memory overhead on a row-heavy SANTOS-Large-style corpus
  * relative to the lake size (`Experiments.memoryOverhead`). Paper (11 GB
  * lake, 7,675 avg rows/table): No Index 359 MB (3.26%), LSH 733 MB (6.66%),
  * HNSW 749 MB (6.81%).
  */
class Table6MemoryBench extends AnyFunSuite {

  test("Table 6: relative memory overhead on a row-heavy SANTOS Large profile") {
    val (lake, rows) = Experiments.memoryOverhead()
    println("\n=== Table 6 (measured) ===")
    println(Tables.renderT6(lake, rows))

    val byMethod = rows.map(r => r.method -> r).toMap
    val noIdx = byMethod("No Index")
    // embeddings are a small fraction of the lake (paper: 3.26%)
    assert(noIdx.overheadPct < 30.0, s"embedding overhead ${noIdx.overheadPct}%")
    // both indexes cost at least the embeddings, at most ~4x (paper: ~2x)
    Seq(Lsh.name, HnswIdx.name).foreach { m =>
      assert(byMethod(m).memBytes >= noIdx.memBytes)
      assert(byMethod(m).memBytes <= noIdx.memBytes * 4,
        s"$m overhead ${byMethod(m).memBytes} vs ${noIdx.memBytes}")
    }
    // HNSW and LSH are in the same ballpark (paper: 749 vs 733 MB)
    val ratio = byMethod(HnswIdx.name).memBytes.toDouble / byMethod(Lsh.name).memBytes
    assert(ratio > 0.4 && ratio < 2.5, s"HNSW/LSH memory ratio $ratio")
  }
}
