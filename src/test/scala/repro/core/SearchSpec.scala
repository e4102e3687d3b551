package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.index.{Hnsw, SimHashLsh}
import scala.util.Random

class SearchSpec extends AnyFunSuite {

  /** A synthetic embedded lake: `nGroups` groups of `perGroup` tables; tables
    * of the same group have near-identical column embeddings.
    */
  private def mkLake(nGroups: Int, perGroup: Int, cols: Int, d: Int,
                     seed: Int): IndexedSeq[(String, IndexedSeq[Array[Float]])] = {
    val rnd = new Random(seed)
    val centers = IndexedSeq.fill(nGroups, cols)(
      Linalg.normalize(Array.fill(d)(rnd.nextGaussian().toFloat)))
    for {
      g <- 0 until nGroups
      i <- 0 until perGroup
    } yield {
      val emb = (0 until cols).map { c =>
        val noise = Array.fill(d)((rnd.nextGaussian() * 0.05).toFloat)
        Linalg.normalized(centers(g)(c).zip(noise).map { case (a, b) => a + b })
      }
      (s"g${g}t$i", emb.toIndexedSeq)
    }
  }

  private val lake = mkLake(nGroups = 8, perGroup = 10, cols = 4, d = 16, seed = 1)
  private val searcher = new UnionSearcher(lake, tau = 0.5)
  private val byId = lake.toMap

  test("verify of a table against itself equals its column count") {
    val u = searcher.verify(byId("g0t0"), "g0t0")
    assert(math.abs(u - 4.0) < 1e-4)
  }

  test("linear search ranks same-group tables on top") {
    val res = searcher.queryLinear(byId("g0t0"), 10)
    assert(res.ranked.size == 10)
    assert(res.ranked.forall(_._1.startsWith("g0")))
  }

  test("linear search verifies every table") {
    val res = searcher.queryLinear(byId("g0t0"), 10)
    assert(res.verifications == lake.size)
  }

  test("pruning returns the same top-k set and scores as linear") {
    lake.take(5).foreach { case (qid, qEmb) =>
      val lin = searcher.queryLinear(qEmb, 10)
      val prn = searcher.queryPruning(qEmb, 10)
      assert(lin.ranked.map(_._1).toSet == prn.ranked.map(_._1).toSet, s"query $qid ids")
      val linScores = lin.ranked.map(_._2).sorted
      val prnScores = prn.ranked.map(_._2).sorted
      linScores.zip(prnScores).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
    }
  }

  test("pruning performs strictly fewer verifications than linear") {
    val prn = searcher.queryPruning(byId("g0t0"), 10)
    assert(prn.verifications < lake.size)
  }

  test("ranked results are sorted by score descending") {
    val res = searcher.queryPruning(byId("g3t2"), 10)
    assert(res.ranked.map(_._2) == res.ranked.map(_._2).sortBy(-_))
  }

  test("k larger than lake returns the whole lake") {
    val res = searcher.queryLinear(byId("g0t0"), 1000)
    assert(res.ranked.size == lake.size)
  }

  test("HNSW-backed search finds the same group with high recall") {
    val index = Search.buildColumnIndex(lake, d => new Hnsw(d, seed = 3))
    val res = searcher.queryWithIndex(byId("g1t0"), 10, index)
    val hits = res.ranked.map(_._1).count(_.startsWith("g1"))
    assert(hits >= 9, s"only $hits/10 from the right group")
    assert(res.candidates < lake.size)
  }

  test("LSH-backed search finds most of the right group") {
    val index = Search.buildColumnIndex(lake, d => new SimHashLsh(d, seed = 3))
    val res = searcher.queryWithIndex(byId("g1t0"), 10, index)
    val hits = res.ranked.map(_._1).count(_.startsWith("g1"))
    assert(hits >= 7, s"only $hits/10 from the right group")
  }

  test("index candidate generation respects tau") {
    val index = Search.buildColumnIndex(lake, d => new Hnsw(d, seed = 3))
    // tau=0.99: only near-identical columns qualify → candidates ≈ own group
    val cands = index.candidateTables(byId("g2t0"), 0.99, probe = 64)
    assert(cands.nonEmpty)
    assert(cands.count(_.startsWith("g2")) == cands.size)
  }

  test("searcher handles a query table absent from the lake") {
    val rnd = new Random(9)
    val q = IndexedSeq.fill(3)(Linalg.normalize(Array.fill(16)(rnd.nextGaussian().toFloat)))
    val res = searcher.queryPruning(q, 5)
    assert(res.ranked.size == 5)
  }

  test("buildColumnIndex rejects a lake without columns") {
    val empty = IndexedSeq.empty[(String, IndexedSeq[Array[Float]])]
    val noCols = IndexedSeq("a" -> IndexedSeq.empty[Array[Float]], "b" -> IndexedSeq.empty[Array[Float]])
    Seq(empty, noCols).foreach { l =>
      val e = intercept[IllegalArgumentException](Search.buildColumnIndex(l, d => new Hnsw(d)))
      assert(e.getMessage.contains("at least one column"))
    }
  }
}
