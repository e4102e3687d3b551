package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.D3L
import repro.core.{Contrastive, Featurizer, Metrics, Search, StarmieEncoder, UnionSearcher}
import repro.index.VectorIndex
import repro.lake.{Benchmarks, LakeGen}
import java.nio.ByteBuffer
import java.security.MessageDigest
import scala.util.Random

/** A santosSmall-sized copy of the bench exactness gates (Table 5 / Fig 10):
  * Pruning returns exactly Linear's ranked lists and verifies fewer tables.
  * It also pins, to digests recorded from the program, the 100-step encoder
  * perfbench trains (the bits of W and of every lake embedding), Starmie's
  * answers with it (Table 5's Linear/Pruning, LSH and HNSW rows, every lake
  * table as a query) and D3L's (Table 3's SANTOS Small row), so that a
  * change to any of them shows in tier-1.
  */
class PruningSmokeSpec extends AnyFunSuite {

  private val profile = Benchmarks.santosSmall
  private lazy val lake = LakeGen.generate(profile.cfg)
  private lazy val feat = new Featurizer()
  private lazy val w = Contrastive.trainMultiColumn(lake.tables, feat, Contrastive.TrainConfig(maxSteps = 100))
  private lazy val emb = Experiments.embedLake(lake, new StarmieEncoder(feat, w))

  private def hex(md: MessageDigest): String = md.digest().map(b => f"$b%02x").mkString

  /** SHA-256 over each query's id and its ranked (table id, score bits), in order */
  private def digest(lists: Seq[(String, Seq[(String, Double)])]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lists.foreach { case (qid, ranked) =>
      md.update(s"$qid:".getBytes("UTF-8"))
      ranked.foreach { case (tid, s) =>
        md.update(s"$tid=${java.lang.Double.doubleToLongBits(s).toHexString};".getBytes("UTF-8"))
      }
    }
    hex(md)
  }

  /** SHA-256 over the raw bits of `rows` (`floatToRawIntBits`, big-endian), row-major */
  private def bitsDigest(rows: Iterator[Array[Float]]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    rows.foreach { row =>
      val buf = ByteBuffer.allocate(4 * row.length)
      row.foreach(x => buf.putInt(java.lang.Float.floatToRawIntBits(x)))
      md.update(buf.array())
    }
    hex(md)
  }

  test("santosSmall: the 100-step encoder's W and every lake embedding match the recorded digests") {
    assert(bitsDigest(w.iterator) == "ba7beb2b5b1c9c65220b53be290aa14dc2abd4b37d54e13243032fd4f2a03899")
    assert(bitsDigest(emb.lake.iterator.flatMap(_._2)) == "49bcbd1e441041ae9540c5310a78596d935fbc5aa1cc5af05e880fab3722a020")
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

  /** MAP@10 of `lists` against the lake's ground truth */
  private def mapAt10(lists: Seq[(String, Seq[(String, Double)])]): Double =
    Metrics.mean(lists.map { case (qid, r) => Metrics.apAtK(r.map(_._1), lake.groundTruth(qid), profile.k) })

  /** every lake table's ranked list from `query` */
  private def everyTable(query: IndexedSeq[Array[Float]] => Search.Result): IndexedSeq[(String, Seq[(String, Double)])] = {
    val lists = emb.lake.map { case (qid, q) => qid -> query(q).ranked }
    assert(lists.size == 546)
    lists
  }

  test("santosSmall: Linear and Pruning give equal ranked lists for every lake table, matching the recorded digest and MAP@10") {
    val searcher = new UnionSearcher(emb.lake, Experiments.DefaultTau)
    val lists = everyTable { q =>
      val lin = searcher.queryLinear(q, profile.k)
      assert(searcher.queryPruning(q, profile.k).ranked == lin.ranked)
      lin
    }
    val map = mapAt10(lists)
    assert(digest(lists) == "0941cf281e3691b4b3efffeeb887bf50e5a2b910d5c5ceb8a4fe6415c8268490")
    assert(map == 0.9470091284376987, s"MAP@10 $map")
  }

  test("santosSmall: the LSH mode's ranked lists for every lake table match the recorded digest and MAP@10") {
    val searcher = new UnionSearcher(emb.lake, Experiments.DefaultTau)
    val index = Search.buildColumnIndex(emb.lake, Experiments.Lsh.mkIndex)
    val lists = everyTable(searcher.queryWithIndex(_, profile.k, index))
    val map = mapAt10(lists)
    assert(digest(lists) == "77be7e5445116c4d0d79df0d717054551b7b95b5761db3ae94cce183ffec7d2d")
    assert(map == 0.6756035234606659, s"MAP@10 $map")
  }

  test("santosSmall: the HNSW mode's ranked lists for every lake table and its probes match the recorded digests and MAP@10") {
    val searcher = new UnionSearcher(emb.lake, Experiments.DefaultTau)
    var hnsw: VectorIndex = null
    val index = Search.buildColumnIndex(emb.lake, d => { hnsw = Experiments.HnswIdx.mkIndex(d); hnsw })
    val lists = everyTable(searcher.queryWithIndex(_, profile.k, index))
    val map = mapAt10(lists)
    // HNSW finds every table Linear ranks here, so the lists are Linear's;
    // the top-64 answers (queryWithIndex's probe) for every lake column pin the graph
    assert(digest(lists) == "0941cf281e3691b4b3efffeeb887bf50e5a2b910d5c5ceb8a4fe6415c8268490")
    assert(map == 0.9470091284376987, s"MAP@10 $map")
    val probes = emb.lake.flatMap(_._2).zipWithIndex.map { case (col, i) =>
      i.toString -> hnsw.search(col, 64).map { case (id, s) => (id.toString, s.toDouble) }
    }
    assert(digest(probes) == "b09d78b7ca7e9ab7df11bd6c387b754fdfcaeaa681840c48a2e5d96e385d0b95")
  }

  test("SANTOS Small: D3L's ranked lists match the recorded digest") {
    val d3l = new D3L.Searcher(lake.tables)
    val byId = lake.tables.map(t => t.id -> t).toMap
    val lists = lake.queries.map(qid => qid -> d3l.query(byId(qid), profile.k))
    assert(lists.size == 50)
    assert(digest(lists) == "d0c26346026319aabba38a528d1dd7c70145296167a16c895bfef88f3198968b")
  }
}
