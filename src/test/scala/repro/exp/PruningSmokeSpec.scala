package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.D3L
import repro.core.{Contrastive, Featurizer, Metrics, Search, StarmieEncoder, UnionSearcher}
import repro.lake.{Benchmarks, LakeGen}
import scala.util.Random

/** A santosSmall-sized copy of the bench exactness gates (Table 5 / Fig 10):
  * Pruning returns exactly Linear's ranked lists and verifies fewer tables.
  * It also pins the LSH-backed answers of Starmie (Table 5's LSH row, with
  * the 100-step encoder perfbench trains) and of D3L (Table 3's SANTOS Small
  * row) to digests recorded from the program, so that a change to either
  * shows in tier-1.
  */
class PruningSmokeSpec extends AnyFunSuite {

  private val profile = Benchmarks.santosSmall
  private lazy val lake = LakeGen.generate(profile.cfg)
  private lazy val emb = {
    val feat = new Featurizer()
    val w = Contrastive.trainMultiColumn(lake.tables, feat, Contrastive.TrainConfig(maxSteps = 100))
    Experiments.embedLake(lake, new StarmieEncoder(feat, w))
  }

  /** SHA-256 over each query's id and its ranked (table id, score bits), in order */
  private def digest(lists: Seq[(String, Seq[(String, Double)])]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    lists.foreach { case (qid, ranked) =>
      md.update(s"$qid:".getBytes("UTF-8"))
      ranked.foreach { case (tid, s) =>
        md.update(s"$tid=${java.lang.Double.doubleToLongBits(s).toHexString};".getBytes("UTF-8"))
      }
    }
    md.digest().map(b => f"$b%02x").mkString
  }

  test("santosSmall: Pruning equals Linear on 20 queries with ≤ 90% of its verifications") {
    val searcher = new UnionSearcher(emb.lake, Experiments.DefaultTau)
    val queries = new Random(20).shuffle(emb.lake.indices.toIndexedSeq).take(20)
    var linear = 0L; var pruning = 0L
    queries.foreach { qi =>
      val (qid, q) = emb.lake(qi)
      val lin = searcher.queryLinear(q, profile.k)
      val prn = searcher.queryPruning(q, profile.k)
      assert(prn.ranked == lin.ranked, s"query $qid")
      linear += lin.verifications; pruning += prn.verifications
    }
    assert(pruning <= 0.9 * linear, s"Pruning verified $pruning tables, Linear $linear")
  }

  test("santosSmall: the LSH mode's ranked lists for every lake table match the recorded digest and MAP@10") {
    val searcher = new UnionSearcher(emb.lake, Experiments.DefaultTau)
    val index = Search.buildColumnIndex(emb.lake, Experiments.Lsh.mkIndex)
    val lists = emb.lake.map { case (qid, q) => qid -> searcher.queryWithIndex(q, profile.k, index).ranked }
    val map = Metrics.mean(lists.map { case (qid, r) => Metrics.apAtK(r.map(_._1), lake.groundTruth(qid), profile.k) })
    assert(lists.size == 546)
    assert(digest(lists) == "77be7e5445116c4d0d79df0d717054551b7b95b5761db3ae94cce183ffec7d2d")
    assert(map == 0.6756035234606659, s"MAP@10 $map")
  }

  test("SANTOS Small: D3L's ranked lists match the recorded digest") {
    val d3l = new D3L.Searcher(lake.tables)
    val byId = lake.tables.map(t => t.id -> t).toMap
    val lists = lake.queries.map(qid => qid -> d3l.query(byId(qid), profile.k))
    assert(lists.size == 50)
    assert(digest(lists) == "d0c26346026319aabba38a528d1dd7c70145296167a16c895bfef88f3198968b")
  }
}
