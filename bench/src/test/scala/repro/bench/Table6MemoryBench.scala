package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Linalg, StarmieEncoder, Featurizer}
import repro.exp.{Experiments, Tables}
import repro.exp.Experiments.{HnswIdx, Lsh}
import repro.lake.LakeGen
import repro.lake.LakeGen.LakeConfig

/** Table 6 — memory overhead on a SANTOS-Large-style corpus relative to the
  * lake size. Paper (11 GB lake, 7,675 avg rows/table): No Index 359 MB
  * (3.26%), LSH 733 MB (6.66%), HNSW 749 MB (6.81%). Embedding size depends
  * on the column count, not the row count, so this bench uses a row-heavy
  * profile (600 rows/table) like the paper's corpus; the encoder weights do
  * not affect memory, so inference uses the untrained projection.
  */
class Table6MemoryBench extends AnyFunSuite {

  test("Table 6: relative memory overhead on a row-heavy SANTOS Large profile") {
    val cfg = LakeConfig(name = "santosLargeMem", nTemplates = 100,
      derivedPerTemplate = 20, arityMin = 4, arityMax = 8,
      sharedTypesPerTemplate = 2, nSharedSurfaces = 16,
      rowsPerDerived = 600, poolSize = 200, colKeepFraction = 0.8,
      nQueries = 0, noise = 0.05, seed = 109)
    val lake = LakeGen.generate(cfg)
    val feat = new Featurizer()
    val enc  = new StarmieEncoder(feat,
      Linalg.randomMatrix(128, feat.cfg.contextDim, 3))
    val emb  = Experiments.embedLake(lake, enc)
    val rows = Experiments.memoryOverhead(lake, emb)
    println(s"\nCorpus: ${lake.tables.size} tables, ${lake.totalColumns} columns, " +
            f"avg rows ${lake.avgRows}%.0f")
    println("\n=== Table 6 (measured) ===")
    println(Tables.renderT6(lake.sizeBytes / 1e6, rows))

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
