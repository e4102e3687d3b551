package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.lake.LakeGen
import repro.lake.LakeGen.LakeConfig

class BaselinesSpec extends AnyFunSuite {

  private val cfg = LakeConfig(name = "bl", nTemplates = 5, derivedPerTemplate = 10,
    arityMin = 3, arityMax = 5, sharedTypesPerTemplate = 1, nSharedSurfaces = 3,
    rowsPerDerived = 20, poolSize = 40, colKeepFraction = 0.8,
    nQueries = 5, noise = 0.02, seed = 21)
  private lazy val lake = LakeGen.generate(cfg)
  private val feat = new Featurizer(FeatConfig(hashDim = 128))

  // ---- Sherlock ------------------------------------------------------------

  test("Sherlock embeddings are unit vectors of prototype dimension") {
    val enc = SherlockEncoder.train(lake, feat, knownFraction = 1.0)
    val em = enc.encodeTable(lake.tables.head)
    assert(em.head.length == enc.dim)
    em.foreach(v => assert(math.abs(Linalg.norm(v) - 1f) < 1e-3))
  }

  test("Sherlock matches same-surface columns when the type is known") {
    val enc = SherlockEncoder.train(lake, feat, knownFraction = 1.0)
    // two tables of the same template share surfaces
    val t1 = lake.tables(0); val t2 = lake.tables(1)
    assert(lake.templateOf(t1.id) == lake.templateOf(t2.id))
    val e1 = enc.encodeTable(t1); val e2 = enc.encodeTable(t2)
    val s1 = lake.colSurfaceType((t1.id, 0))
    val j = t2.columns.indices.find(ci => lake.colSurfaceType((t2.id, ci)) == s1)
    j.foreach { ci =>
      assert(Linalg.dot(e1(0), e2(ci)) > 0.9f,
        "same known surface should map to the same prototype")
    }
  }

  test("Sherlock with partial coverage has fewer prototypes") {
    val full = SherlockEncoder.train(lake, feat, knownFraction = 1.0)
    val part = SherlockEncoder.train(lake, feat, knownFraction = 0.5)
    assert(part.dim < full.dim && part.dim >= 1)
  }

  test("Sherlock cannot distinguish homograph columns (by construction)") {
    val enc = SherlockEncoder.train(lake, feat, knownFraction = 1.0)
    // find a surface used in two templates
    val bySurface = lake.colSurfaceType.toSeq.groupBy(_._2)
      .filter(_._2.map(c => lake.templateOf(c._1._1)).distinct.size > 1)
    assert(bySurface.nonEmpty)
    val cols = bySurface.head._2
    val groups = cols.groupBy(c => lake.templateOf(c._1._1)).values.toSeq
    val (t1, c1) = groups(0).head._1
    val (t2, c2) = groups(1).head._1
    val table1 = lake.tables.find(_.id == t1).get
    val table2 = lake.tables.find(_.id == t2).get
    val sim = Linalg.dot(enc.encodeTable(table1)(c1), enc.encodeTable(table2)(c2))
    assert(sim > 0.85f, s"homographs should collide for Sherlock, sim=$sim")
  }

  // ---- SATO ----------------------------------------------------------------

  test("SATO embeddings include the topic half") {
    val sherlock = SherlockEncoder.train(lake, feat, knownFraction = 1.0)
    val sato = new SatoEncoder(feat, sherlock)
    assert(sato.dim == sherlock.dim + 64)
    val em = sato.encodeTable(lake.tables.head)
    em.foreach(v => assert(math.abs(Linalg.norm(v) - 1f) < 1e-3))
  }

  test("SATO separates homographs better than Sherlock") {
    val sherlock = SherlockEncoder.train(lake, feat, knownFraction = 1.0)
    val sato = new SatoEncoder(feat, sherlock)
    val bySurface = lake.colSurfaceType.toSeq.groupBy(_._2)
      .filter(_._2.map(c => lake.templateOf(c._1._1)).distinct.size > 1)
    val cols = bySurface.head._2
    val groups = cols.groupBy(c => lake.templateOf(c._1._1)).values.toSeq
    val (t1, c1) = groups(0).head._1
    val (t2, c2) = groups(1).head._1
    val table1 = lake.tables.find(_.id == t1).get
    val table2 = lake.tables.find(_.id == t2).get
    val sherlockSim = Linalg.dot(sherlock.encodeTable(table1)(c1), sherlock.encodeTable(table2)(c2))
    val satoSim     = Linalg.dot(sato.encodeTable(table1)(c1), sato.encodeTable(table2)(c2))
    assert(satoSim < sherlockSim)
  }

  // ---- D3L -----------------------------------------------------------------

  test("D3L jaccard basics") {
    assert(D3L.jaccard(Set("a", "b"), Set("b", "c")) == 1.0 / 3)
    assert(D3L.jaccard(Set.empty, Set.empty) == 0.0)
    assert(D3L.jaccard(Set("a"), Set("a")) == 1.0)
  }

  test("D3L format distribution similarity") {
    val a = Map("d" -> 1.0)
    val b = Map("d" -> 0.5, "a" -> 0.5)
    val s = D3L.distCosine(a, b)
    assert(s > 0.5 && s < 1.0)
    assert(D3L.distCosine(a, a) > 0.999)
  }

  test("D3L numeric interval overlap") {
    assert(D3L.numericOverlap((0.0, 1.0), (0.0, 1.0)) == 1.0)
    assert(D3L.numericOverlap((0.0, 1.0), (10.0, 1.0)) == 0.0)
    val partial = D3L.numericOverlap((0.0, 2.0), (2.0, 2.0))
    assert(partial > 0 && partial < 1)
  }

  test("D3L column score favours same-pool columns") {
    val a = D3L.signature(ColumnData("x", IndexedSeq("cityv1 north", "cityv2 south", "cityv3 east")))
    val b = D3L.signature(ColumnData("y", IndexedSeq("cityv2 south", "cityv4 west", "cityv1 north")))
    val c = D3L.signature(ColumnData("z", IndexedSeq("1997", "1998", "1999")))
    assert(D3L.columnScore(a, b) > D3L.columnScore(a, c))
  }

  test("D3L search ranks same-template tables first") {
    val searcher = new D3L.Searcher(lake.tables)
    val q = lake.tables.head
    val top = searcher.query(q, 5)
    assert(top.head._1 == q.id) // self-match is strongest
    val sameTpl = top.count { case (tid, _) => lake.templateOf(tid) == lake.templateOf(q.id) }
    assert(sameTpl >= 3)
  }

  // ---- SANTOS --------------------------------------------------------------

  test("SANTOS annotates covered text columns with their surface") {
    val santos = SantosLike.build(lake, coverage = 1.0)
    val t = lake.tables.head
    val ann = santos.annotate(t)
    t.columns.indices.foreach { ci =>
      val surface = lake.colSurfaceType((t.id, ci))
      ann(ci) match {
        case Some(cls) =>
          if (!t.columns(ci).isNumeric) assert(cls == surface)
          else assert(cls.startsWith("num"))
        case None => // noise can push a column below the 50% threshold
      }
    }
  }

  test("SANTOS with zero-ish coverage annotates almost nothing") {
    val santos = SantosLike.build(lake, coverage = 0.01)
    val annotated = lake.tables.take(10).flatMap(t => santos.annotate(t).flatten)
    val full = SantosLike.build(lake, coverage = 1.0)
    val annotatedFull = lake.tables.take(10).flatMap(t => full.annotate(t).flatten)
    assert(annotated.size < annotatedFull.size)
  }

  test("SANTOS scores same-template tables higher than cross-template") {
    val santos = SantosLike.build(lake, coverage = 1.0)
    val q = lake.tables.head
    val same = lake.tables.find(t => t.id != q.id && lake.templateOf(t.id) == lake.templateOf(q.id)).get
    val diff = lake.tables.find(t => lake.templateOf(t.id) != lake.templateOf(q.id)).get
    assert(santos.score(q, same) > santos.score(q, diff))
  }

  test("SANTOS searcher returns k ranked results") {
    val santos = SantosLike.build(lake, coverage = 0.9)
    val searcher = new santos.Searcher(lake.tables)
    val res = searcher.query(lake.tables.head, 7)
    assert(res.size == 7)
    assert(res.map(_._2) == res.map(_._2).sortBy(-_))
  }

  test("SANTOS searcher ranks by score(q, t) for every lake table") {
    val santos = SantosLike.build(lake, coverage = 0.9)
    val searcher = new santos.Searcher(lake.tables)
    val byId = lake.tables.map(t => t.id -> t).toMap
    lake.tables.foreach { q =>
      val ranked = searcher.query(q, lake.tables.size)
      assert(ranked.map(_._1).sorted == lake.tables.map(_.id).sorted)
      ranked.foreach { case (tid, s) =>
        assert(s == santos.score(q, byId(tid)), s"${q.id} vs $tid")
      }
    }
  }
}
