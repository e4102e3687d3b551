package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.lake.LakeGen
import repro.lake.LakeGen.LakeConfig

/** Extra coverage for baseline behaviours added during bring-up: Sherlock's
  * statistical-only numeric featurization and D3L's LSH candidate stage.
  */
class BaselinesExtraSpec extends AnyFunSuite {

  private val feat = new Featurizer(FeatConfig(hashDim = 128))

  test("Sherlock featurizes numeric columns statistically (hash block zeroed)") {
    val numeric = ColumnData("n", IndexedSeq("1992", "2001", "2014"))
    val v = SherlockEncoder.features(feat, numeric)
    assert(v.take(feat.cfg.hashDim).forall(_ == 0f), "hash block must be zero")
    assert(v.drop(feat.cfg.hashDim).exists(_ != 0f), "stats block must survive")
    assert(math.abs(Linalg.norm(v) - 1f) < 1e-3)
  }

  test("Sherlock keeps the full featurization for text columns") {
    val text = ColumnData("t", IndexedSeq("alpha", "beta"))
    val v = SherlockEncoder.features(feat, text)
    assert(v.take(feat.cfg.hashDim).exists(_ != 0f))
    assert(v.toSeq == feat.columnFeatures(text).toSeq)
  }

  test("Sherlock confuses numeric surfaces with similar distributions") {
    // two different numeric surfaces with overlapping ranges look alike
    val a = SherlockEncoder.features(feat, ColumnData("y1", IndexedSeq("1950", "1980", "2010")))
    val b = SherlockEncoder.features(feat, ColumnData("y2", IndexedSeq("1955", "1985", "2015")))
    assert(Linalg.cosine(a, b) > 0.95f)
  }

  test("D3L searcher restricts scoring to LSH candidates") {
    val cfg = LakeConfig(name = "d3l", nTemplates = 4, derivedPerTemplate = 6,
      arityMin = 3, arityMax = 4, sharedTypesPerTemplate = 1, nSharedSurfaces = 2,
      rowsPerDerived = 15, poolSize = 30, colKeepFraction = 0.9,
      nQueries = 2, noise = 0.0, seed = 9)
    val lake = LakeGen.generate(cfg)
    val searcher = new D3L.Searcher(lake.tables)
    val q = lake.tables.head
    val res = searcher.query(q, 5)
    assert(res.nonEmpty)
    // self-similar tables should still surface through the LSH stage
    assert(res.map(_._1).contains(q.id))
    // scores descend
    assert(res.map(_._2) == res.map(_._2).sorted(Ordering[Double].reverse))
  }

  test("D3L query ranks the query table first with a positive score") {
    val cfg = LakeConfig(name = "d3l2", nTemplates = 3, derivedPerTemplate = 3,
      arityMin = 3, arityMax = 3, sharedTypesPerTemplate = 1, nSharedSurfaces = 2,
      rowsPerDerived = 10, poolSize = 20, colKeepFraction = 1.0,
      nQueries = 1, noise = 0.0, seed = 10)
    val lake = LakeGen.generate(cfg)
    val searcher = new D3L.Searcher(lake.tables)
    val q = lake.tables.head
    val (top, score) = searcher.query(q, 5).head
    assert(top == q.id)
    assert(score > 0)
  }
}
