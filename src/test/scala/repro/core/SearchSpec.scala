package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.index.{Hnsw, LinearIndex, SimHashLsh, VectorIndex}
import scala.jdk.CollectionConverters._
import scala.util.Random

class SearchSpec extends AnyFunSuite {
  import SearchSpec.LakeCase

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
    val q = byId("g0t0")
    val res = searcher.queryLinear(q, 1000)
    assert(res.ranked.size == lake.size)
    assert(searcher.queryPruning(q, 1000).ranked == res.ranked)
    // an index mode returns every candidate table
    val index = Search.buildColumnIndex(lake, d => new LinearIndex(d))
    val viaIndex = searcher.queryWithIndex(q, 1000, index, probe = lake.size * 4)
    assert(viaIndex.ranked.size == viaIndex.candidates)
    assert(viaIndex.ranked == res.ranked.filter(_._2 > 0))
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

  test("k ≤ 0 is rejected by every query mode") {
    val index = Search.buildColumnIndex(lake, d => new LinearIndex(d))
    val q = byId("g0t0")
    for (k <- Seq(0, -1);
         run <- Seq[() => Search.Result](() => searcher.queryLinear(q, k),
                                         () => searcher.queryPruning(q, k),
                                         () => searcher.queryWithIndex(q, k, index))) {
      val e = intercept[IllegalArgumentException](run())
      assert(e.getMessage.contains("k must be positive"))
    }
  }

  test("lake and query columns of another dimension are rejected by every query mode") {
    // every query mode over a LinearIndex on the lake l, and verify of its first table
    def modes(s: UnionSearcher, l: IndexedSeq[(String, IndexedSeq[Array[Float]])],
              q: IndexedSeq[Array[Float]]): Seq[() => Any] = {
      val index = Search.buildColumnIndex(l, d => new LinearIndex(d))
      Seq(() => s.queryLinear(q, 5), () => s.queryPruning(q, 5),
          () => s.queryWithIndex(q, 5, index), () => s.verify(q, l.head._1))
    }
    val odd = lake.take(3) :+ ("odd" -> IndexedSeq(Linalg.normalize(Array.fill(15)(1.0f))))
    val e = intercept[IllegalArgumentException](new UnionSearcher(odd, tau = 0.5))
    assert(e.getMessage.contains("share one dimension"))
    // the §4.3 bounds and the matching assume no kept edge is negative
    for (tau <- Seq(-0.1, Double.NaN)) {
      val e = intercept[IllegalArgumentException](new UnionSearcher(lake, tau))
      assert(e.getMessage.contains("tau must be >= 0"))
    }
    // a shorter query column would give a truncated dot, a longer one an
    // out-of-bounds read
    for (d <- Seq(15, 17);
         run <- modes(searcher, lake, IndexedSeq.fill(2)(Linalg.normalize(Array.fill(d)(1.0f))))) {
      val e = intercept[IllegalArgumentException](run())
      assert(e.getMessage.contains("the lake's dimension 16"))
    }
    // verify also names a table id that is not in the lake
    val e2 = intercept[IllegalArgumentException](searcher.verify(byId("g0t0"), "nope"))
    assert(e2.getMessage.contains("'nope' is not in the lake"))
    // a column that is neither unit-norm nor all-zero would turn the τ cosine
    // test into a dot-product test
    val long = lake.take(3) :+ ("long" -> IndexedSeq(Array.fill(16)(0.5f)))
    val e3 = intercept[IllegalArgumentException](new UnionSearcher(long, tau = 0.5))
    assert(e3.getMessage.contains("lake column must be unit-norm or all-zero, its norm is 2.0"))
    for (run <- modes(searcher, lake, IndexedSeq(byId("g0t0").head, Array.fill(16)(0.5f)))) {
      val e = intercept[IllegalArgumentException](run())
      assert(e.getMessage.contains("query column must be unit-norm or all-zero, its norm is 2.0"))
    }
    // all-zero columns are accepted in the lake and in every query mode, and score 0
    val zero = new Array[Float](16)
    val withZero = lake.take(3) :+ ("zero" -> IndexedSeq(zero, byId("g0t0").head))
    val zs = new UnionSearcher(withZero, tau = 0.5)
    modes(zs, withZero, IndexedSeq(zero, byId("g0t0")(1))).foreach(_())
    assert(zs.verify(IndexedSeq(zero), "g0t0") == 0.0)
  }

  test("duplicate table ids are rejected") {
    val dup = lake.take(3) :+ (lake.head._1 -> lake(1)._2)
    val e = intercept[IllegalArgumentException](new UnionSearcher(dup, tau = 0.5))
    assert(e.getMessage.contains("distinct"))
  }

  test("candidate ids must be lake tables") {
    val q = byId("g0t0")
    val e = intercept[IllegalArgumentException](
      searcher.queryPruning(q, 5, Some(IndexedSeq("g0t0", "nope"))))
    assert(e.getMessage.contains("'nope' is not in the lake"))
  }

  test("candidate ids must be distinct") {
    val q = byId("g0t0")
    val e = intercept[IllegalArgumentException](
      searcher.queryPruning(q, 5, Some(IndexedSeq("g0t0", "g0t0", "g0t1"))))
    assert(e.getMessage.contains("'g0t0' is listed more than once"))
  }

  test("concurrent Pruning queries on one searcher equal the sequential ones") {
    // tables of 1–6 columns, so that queries differ in every buffer size
    val mixed = (1 to 6).flatMap { c =>
      mkLake(nGroups = 4, perGroup = 8, cols = c, d = 16, seed = c).map { case (id, e) => s"c$c$id" -> e }
    }
    val s = new UnionSearcher(mixed, tau = 0.5)
    val rnd = new Random(5)
    val cands = mixed.indices.map(_ => Some(rnd.shuffle(mixed.map(_._1)).take(mixed.size / 2)))
    val runs = (mixed.indices.map(i => (i, None)) ++ mixed.indices.zip(cands)).toArray
    def run(r: (Int, Option[IndexedSeq[String]])): (IndexedSeq[(String, Double)], Long) = {
      val res = s.queryPruning(mixed(r._1)._2, 10, r._2)
      (res.ranked, res.verifications)
    }
    val sequential = runs.map(run)
    (1 to 5).foreach { _ =>
      val parallel = new Array[(IndexedSeq[(String, Double)], Long)](runs.length)
      java.util.stream.IntStream.range(0, runs.length).parallel()
        .forEach((i: Int) => parallel(i) = run(runs(i)))
      assert(parallel.sameElements(sequential))
    }
  }

  test("queries issued from inside a parallel stream equal the sequential ones, on a lake whose probes split") {
    // 1,200 tables of 4 columns: the 4,800-column HNSW covers at least
    // MinSplitWork, so its probes fork from inside the common pool's
    // workers, as nested tasks; the LSH's probes run on the query's thread,
    // side by side with the other queries' on one instance
    val big = mkLake(nGroups = 60, perGroup = 20, cols = 4, d = 16, seed = 11)
    val nCols = big.map(_._2.size).sum
    assert(nCols >= Search.MinSplitWork)
    val s = new UnionSearcher(big, tau = 0.5)
    val hnsw = Search.buildColumnIndex(big, d => new Hnsw(d, seed = 3))
    val lsh  = Search.buildColumnIndex(big, d => new SimHashLsh(d, seed = 3))
    val queries = big.indices.filter(_ % 19 == 0).take(64).map(big(_)._2)
    assert(queries.size == 64)
    def run(q: IndexedSeq[Array[Float]]): Seq[(IndexedSeq[(String, Double)], Long, Int)] =
      Seq(s.queryPruning(q, 10), s.queryWithIndex(q, 10, hnsw), s.queryWithIndex(q, 10, lsh))
        .map(r => (r.ranked, r.verifications, r.candidates))
    val sequential = queries.map(run)
    (1 to 3).foreach { _ =>
      val parallel = new Array[Seq[(IndexedSeq[(String, Double)], Long, Int)]](queries.size)
      java.util.stream.IntStream.range(0, queries.size).parallel()
        .forEach((i: Int) => parallel(i) = run(queries(i)))
      assert(parallel.toSeq == sequential)
    }
  }

  test("the first full-lake Pruning queries of a fresh searcher, issued from a parallel stream, equal the sequential ones") {
    // they build the dimension-major copy of the 4,800-column lake, about 5
    // filter chunks, once between them, and answer as a sequential searcher
    val big = mkLake(nGroups = 60, perGroup = 20, cols = 4, d = 16, seed = 17)
    val queries = big.indices.filter(_ % 19 == 0).take(64).map(big(_)._2)
    def run(s: UnionSearcher, q: IndexedSeq[Array[Float]]) = {
      val r = s.queryPruning(q, 10)
      (r.ranked, r.verifications)
    }
    val reference = new UnionSearcher(big, tau = 0.5)
    val sequential = queries.map(run(reference, _))
    (1 to 3).foreach { _ =>
      val fresh = new UnionSearcher(big, tau = 0.5)
      val parallel = new Array[(IndexedSeq[(String, Double)], Long)](queries.size)
      java.util.stream.IntStream.range(0, queries.size).parallel()
        .forEach((i: Int) => parallel(i) = run(fresh, queries(i)))
      assert(parallel.toSeq == sequential)
    }
  }

  test("an index that does not declare concurrent search is probed from the calling thread only, with the same candidates") {
    // a wrapper that does not forward concurrentSearch, over an index large
    // enough that its probes would split
    final class Recording(inner: VectorIndex) extends VectorIndex {
      val threads = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()
      override def add(id: Int, vec: Array[Float]): Unit = inner.add(id, vec)
      override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] = {
        threads.add(Thread.currentThread); inner.search(query, k)
      }
      override def size: Int = inner.size
      override def memoryBytes: Long = inner.memoryBytes
    }
    val big = mkLake(nGroups = 60, perGroup = 20, cols = 4, d = 16, seed = 13)
    assert(big.map(_._2.size).sum >= Search.MinSplitWork)
    val recording = new Recording(new LinearIndex(16))
    val wrapped = Search.buildColumnIndex(big, _ => recording)
    val direct  = Search.buildColumnIndex(big, d => new LinearIndex(d))
    big.indices.filter(_ % 97 == 0).foreach { t =>
      recording.threads.clear()
      assert(wrapped.candidateTables(big(t)._2, 0.5, 64) == direct.candidateTables(big(t)._2, 0.5, 64))
      assert(recording.threads.asScala.toSet == Set(Thread.currentThread))
    }
  }

  // ---- exactness properties over random small lakes -------------------------

  /** 0–8 tables of 0–4 columns each, k ∈ [1, n+3], τ ∈ [0, 0.95]. Columns are
    * drawn around a pool of four directions; with noise 0 they repeat exactly,
    * so tied scores occur as well as edges on either side of τ. Ids are
    * shuffled, so that lake order does not decide ties.
    */
  private val genCase: Gen[LakeCase] = {
    val d = 4
    val coords = Gen.listOfN(d, Gen.choose(-1.0, 1.0))
    for {
      pool   <- Gen.listOfN(4, coords)
      noise  <- Gen.oneOf(0.0, 0.1, 0.5)
      col     = for (c <- Gen.oneOf(pool); e <- coords)
                  yield Linalg.normalize(c.zip(e).map { case (a, b) => (a + noise * b).toFloat }.toArray)
      cols    = Gen.choose(0, 4).flatMap(Gen.listOfN(_, col)).map(_.toIndexedSeq)
      n      <- Gen.choose(0, 8)
      tables <- Gen.listOfN(n, cols)
      ids    <- Gen.long.map(seed => new Random(seed).shuffle((0 until n).map(i => s"t$i")))
      query  <- cols
      k      <- Gen.choose(1, n + 3)
      tau    <- Gen.choose(0.0, 0.95)
    } yield LakeCase(ids.zip(tables), query, k, tau)
  }

  private def holds(prop: Prop): Boolean =
    SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed

  test("Pruning returns exactly Linear's ranked list (property)") {
    // with empty lakes, tables and queries without columns, and k beyond the lake
    assert(holds(Prop.forAllNoShrink(genCase) { c =>
      val s   = new UnionSearcher(c.lake, c.tau)
      val prn = s.queryPruning(c.query, c.k)
      val lin = s.queryLinear(c.query, c.k)
      val noEdges = c.lake.collect { case (id, cols) if cols.isEmpty || c.query.isEmpty => id }.toSet
      scoreBits(prn.ranked) == scoreBits(lin.ranked) &&
        prn.ranked.size == math.min(c.k, c.lake.size) &&
        prn.ranked.forall { case (id, u) => !noEdges(id) || u == 0.0 } &&
        (c.lake.nonEmpty || prn.verifications + lin.verifications == 0)
    }))
  }

  test("LinearIndex with a full probe returns Pruning's positive-score entries (property)") {
    // candidate generation drops tables without a τ-edge; Pruning fills its
    // heap with their free 0 scores instead
    assert(holds(Prop.forAllNoShrink(genCase) { c =>
      val nCols = c.lake.map(_._2.size).sum
      nCols == 0 || {
        val s     = new UnionSearcher(c.lake, c.tau)
        val index = Search.buildColumnIndex(c.lake, d => new LinearIndex(d))
        s.queryWithIndex(c.query, c.k, index, probe = nCols).ranked ==
          s.queryPruning(c.query, c.k).ranked.filter(_._2 > 0)
      }
    }))
  }

  test("Pruning over a candidate list and LinearIndex-backed search give each table verify's score bits (property)") {
    // candidates in shuffled order, so that their columns sit at gathered
    // block offsets, not at their lake offsets
    assert(holds(Prop.forAllNoShrink(genCase, Gen.long) { (c, seed) =>
      val s     = new UnionSearcher(c.lake, c.tau)
      val rnd   = new Random(seed)
      val ids   = rnd.shuffle(c.lake.map(_._1))
      val nCols = c.lake.map(_._2.size).sum
      val viaIndex =
        if (nCols == 0) IndexedSeq.empty
        else s.queryWithIndex(c.query, c.k, Search.buildColumnIndex(c.lake, d => new LinearIndex(d)),
                              probe = nCols).ranked
      val ranked = s.queryPruning(c.query, c.k, Some(ids.take(rnd.nextInt(ids.size + 1)))).ranked ++ viaIndex
      scoreBits(ranked) == scoreBits(ranked.map { case (id, _) => (id, s.verify(c.query, id)) })
    }))
  }

  /** A lake of about 2 × MinSplitWork columns, 8 chunks of the full-lake
    * filter, and a query of 1–6 columns, so that every probe of an index over
    * the lake and the filter of a large candidate list split: tables of 0–8
    * columns drawn around a pool of six directions, with repeats, ties and
    * shuffled ids as in `genCase`.
    */
  private val genSplitCase: Gen[LakeCase] = {
    val d = 8
    val coords = Gen.listOfN(d, Gen.choose(-1.0, 1.0))
    for {
      pool   <- Gen.listOfN(6, coords)
      noise  <- Gen.oneOf(0.0, 0.1, 0.5)
      col     = for (c <- Gen.oneOf(pool); e <- coords)
                  yield Linalg.normalize(c.zip(e).map { case (a, b) => (a + noise * b).toFloat }.toArray)
      m      <- Gen.choose(1, 6)
      query  <- Gen.listOfN(m, col).map(_.toIndexedSeq)
      n       = Search.MinSplitWork / 2 + 1
      tables <- Gen.listOfN(n, Gen.choose(0, 8).flatMap(Gen.listOfN(_, col)).map(_.toIndexedSeq))
      ids    <- Gen.long.map(seed => new Random(seed).shuffle((0 until n).map(i => s"t$i")))
      k      <- Gen.choose(1, 30)
      tau    <- Gen.choose(0.0, 0.95)
    } yield LakeCase(ids.zip(tables), query, k, tau)
  }

  private def scoreBits(ranked: IndexedSeq[(String, Double)]): IndexedSeq[(String, Long)] =
    ranked.map { case (id, u) => (id, java.lang.Double.doubleToRawLongBits(u)) }

  test("Pruning whose candidate filter splits across the cores returns Linear's ids and score bits over the candidates (property)") {
    // three quarters of the tables, shuffled, so that the candidates' columns
    // sit at gathered block offsets; Linear runs on a lake of just those tables
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60),
      Prop.forAllNoShrink(genSplitCase, Gen.long) { (c, seed) =>
        val cands = new Random(seed).shuffle(c.lake).take(c.lake.size * 3 / 4)
        val s = new UnionSearcher(c.lake, c.tau)
        c.query.size.toLong * cands.map(_._2.size).sum >= Search.MinSplitWork &&
          scoreBits(s.queryPruning(c.query, c.k, Some(cands.map(_._1))).ranked) ==
            scoreBits(new UnionSearcher(cands, c.tau).queryLinear(c.query, c.k).ranked)
      }).passed)
  }

  test("Pruning over a full lake of several filter chunks returns Linear's ids and score bits (property)") {
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60),
      Prop.forAllNoShrink(genSplitCase) { c =>
        val s = new UnionSearcher(c.lake, c.tau)
        c.lake.map(_._2.size).sum > 4 * Linalg.ByDimChunk &&
          scoreBits(s.queryPruning(c.query, c.k).ranked) == scoreBits(s.queryLinear(c.query, c.k).ranked)
      }).passed)
  }

  test("LinearIndex probes that split keep the candidate order and return Pruning's positive-score entries (property)") {
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(30),
      Prop.forAllNoShrink(genSplitCase) { c =>
        val nCols = c.lake.map(_._2.size).sum
        val s     = new UnionSearcher(c.lake, c.tau)
        val exact = new LinearIndex(c.query.head.length)
        val index = Search.buildColumnIndex(c.lake, d => exact)
        // the serial merge: query column by query column, first sight wins
        val owner = c.lake.flatMap { case (id, cols) => cols.map(_ => id) }
        val inOrder = c.query.flatMap(q => exact.search(q, nCols).collect {
          case (col, sim) if sim >= c.tau => owner(col) }).distinct
        nCols >= Search.MinSplitWork &&
          index.candidateTables(c.query, c.tau, nCols) == inOrder &&
          scoreBits(s.queryWithIndex(c.query, c.k, index, probe = nCols).ranked) ==
            scoreBits(s.queryPruning(c.query, c.k).ranked.filter(_._2 > 0))
      }).passed)
  }

  test("Pruning's verification order and admission floor equal those of a sort over every table (property)") {
    // bounds of 0–12 tables with 0–3 × 0–3 similarities drawn from a few
    // repeated values, so UBs tie, all-zero tables keep 0-weight edges at
    // τ = 0, and negative ones fall below any τ
    val weight = Gen.frequency(3 -> Gen.oneOf(0.0, -0.3, 0.45, 0.7, 1.0), 2 -> Gen.choose(-1.0, 1.0))
    val table = for {
      m <- Gen.choose(0, 3); n <- Gen.choose(0, 3)
      allZero <- Gen.oneOf(false, false, true)
      w <- Gen.listOfN(m * n, if (allZero) Gen.const(0.0) else weight)
    } yield (m, n, w.toArray)
    val gen = for {
      nt <- Gen.choose(0, 12)
      tables <- Gen.listOfN(nt, table)
      tau <- Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 0.9))
      k <- Gen.choose(1, nt + 3)
    } yield (tables, tau, k)
    var zeroTau, fewerThanK, zeroUb = 0
    assert(holds(Prop.forAllNoShrink(gen) { case (tables, tau, k) =>
      val nt = tables.size
      val lbs = new Array[Double](nt); val ubs = new Array[Double](nt)
      tables.zipWithIndex.foreach { case ((m, n, w), c) =>
        val edges = new Bounds.EdgeList(m, n, tau)
        for (i <- 0 until m; j <- 0 until n) edges.add(i, j, w(i * n + j))
        edges.bound(m, n)
        lbs(c) = edges.lb; ubs(c) = edges.ub
      }
      if (tau == 0.0) zeroTau += 1
      if (nt < k) fewerThanK += 1
      if (ubs.contains(0.0)) zeroUb += 1
      // the floor of a sort over every table; with fewer than k tables it
      // used to be −∞, which skips as little as 0.0 since every UB is ≥ 0
      val floor = if (nt >= k) lbs.sorted.apply(nt - k) else 0.0
      val (order, lbFloor) = Search.verificationOrder(lbs, ubs, k)
      order.toSeq == (0 until nt).sortBy(c => -ubs(c)) && lbFloor == floor
    }))
    assert(zeroTau > 0 && fewerThanK > 0 && zeroUb > 0)
  }
}

object SearchSpec {
  final case class LakeCase(lake: IndexedSeq[(String, IndexedSeq[Array[Float]])],
                            query: IndexedSeq[Array[Float]], k: Int, tau: Double)
}
