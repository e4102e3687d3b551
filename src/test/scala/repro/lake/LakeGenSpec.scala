package repro.lake

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import LakeGen._

class LakeGenSpec extends SparkSpec {

  private val cfg = LakeConfig(name = "mini", nTemplates = 6, derivedPerTemplate = 8,
    arityMin = 3, arityMax = 5, sharedTypesPerTemplate = 2, nSharedSurfaces = 4,
    rowsPerDerived = 15, poolSize = 40, colKeepFraction = 0.8,
    nQueries = 6, noise = 0.05, seed = 7)
  private lazy val lake = LakeGen.generate(cfg)

  test("lake has the configured table count") {
    assert(lake.tables.size == 6 * 8)
  }

  test("generation is deterministic in the seed") {
    val a = LakeGen.generate(cfg)
    val b = LakeGen.generate(cfg)
    assert(a.tables == b.tables && a.queries == b.queries)
  }

  test("different seeds change the lake") {
    val b = LakeGen.generate(cfg.copy(seed = 8))
    assert(lake.tables != b.tables)
  }

  test("every table belongs to a template and every column is typed") {
    lake.tables.foreach { t =>
      assert(lake.templateOf.contains(t.id))
      t.columns.indices.foreach { ci =>
        assert(lake.colContextualType.contains((t.id, ci)))
        assert(lake.colSurfaceType.contains((t.id, ci)))
      }
    }
  }

  test("tables keep at least 2 columns and the configured rows") {
    lake.tables.foreach { t =>
      assert(t.numCols >= 2)
      assert(t.numRows == cfg.rowsPerDerived)
    }
  }

  test("ground truth is the template cohort, includes the query") {
    val q = lake.queries.head
    val gt = lake.groundTruth(q)
    assert(gt.contains(q))
    assert(gt.size == 8) // derivedPerTemplate
    gt.foreach(tid => assert(lake.templateOf(tid) == lake.templateOf(q)))
  }

  test("queries cover multiple templates") {
    val tpls = lake.queries.map(lake.templateOf).distinct
    assert(tpls.size >= 5)
  }

  test("homograph surfaces appear in more than one template") {
    val byTemplate = lake.colSurfaceType.groupBy(_._2).view
      .mapValues(_.keys.map(k => lake.templateOf(k._1)).toSet)
    val homographs = byTemplate.filter(_._2.size > 1)
    assert(homographs.nonEmpty, "expected shared surfaces across templates")
  }

  test("homograph columns share the surface pool (token overlap)") {
    // find two columns with same surface in different templates
    val bySurface = lake.colSurfaceType.toSeq.groupBy(_._2)
    val shared = bySurface.values.find { cols =>
      cols.map(c => lake.templateOf(c._1._1)).distinct.size > 1
    }.get
    val groups = shared.groupBy(c => lake.templateOf(c._1._1)).values.toSeq
    val (t1, c1) = groups(0).head._1
    val (t2, c2) = groups(1).head._1
    val tokens1 = lake.tables.find(_.id == t1).get.columns(c1).tokenSet
    val tokens2 = lake.tables.find(_.id == t2).get.columns(c2).tokenSet
    assert(tokens1.intersect(tokens2).nonEmpty)
  }

  test("numeric surfaces generate numeric cells") {
    val numericCol = lake.tables.iterator.flatMap { t =>
      t.columns.zipWithIndex.collectFirst {
        case (c, ci) if lake.colContextualType((t.id, ci)).startsWith("shared0@") => c
      }
    }.toSeq.headOption
    numericCol.foreach { c =>
      // shared0 is numeric by construction (i % 3 == 0)
      assert(c.numericFraction > 0.8)
    }
  }

  test("lake statistics: column totals match DuckDB (oracle)") {
    val sample = lake.tables.take(10)
    val cellDf = Oracle.toCellDf(spark, sample)
    val agg = cellDf.groupBy("table_id")
      .agg(countDistinct("col_idx").as("n_cols"), countDistinct("row_idx").as("n_rows"))
    Oracle.assertEquivalent(agg,
      """SELECT table_id, COUNT(DISTINCT col_idx) AS n_cols,
        |       COUNT(DISTINCT row_idx) AS n_rows
        |FROM cells GROUP BY table_id""".stripMargin,
      "cells" -> cellDf)
  }

  test("sizeBytes equals the sum of cell lengths") {
    val manual = lake.tables.flatMap(_.columns).flatMap(_.values).map(_.length.toLong).sum
    assert(lake.sizeBytes == manual)
  }

  test("microLake has ~470 tables with 25% positives") {
    val base = LakeGen.generate(cfg.copy(nTemplates = 12, derivedPerTemplate = 60,
      nQueries = 0, name = "microbase"))
    val micro = LakeGen.microLake(base, nNegClasses = 4)
    assert(micro.tables.size >= 300 && micro.tables.size <= 470)
    val posTpl = base.templates.head.id
    val nPos = micro.tables.count(t => micro.templateOf(t.id) == posTpl)
    assert(math.abs(nPos - 117) <= 60, s"positives: $nPos")
    val negTpls = micro.tables.map(t => micro.templateOf(t.id)).distinct.filterNot(_ == posTpl)
    assert(negTpls.size == 4)
    assert(micro.queries.nonEmpty)
    micro.queries.foreach(q => assert(micro.templateOf(q) == posTpl))
  }

  test("benchmark profiles have the paper's table counts") {
    import repro.lake.Benchmarks._
    assert(santosSmall.cfg.nTemplates * santosSmall.cfg.derivedPerTemplate == 546)
    assert(tusSmall.cfg.nTemplates * tusSmall.cfg.derivedPerTemplate == 1530)
    assert(tusLarge.cfg.nTemplates * tusLarge.cfg.derivedPerTemplate == 5024)
    assert(!tusLarge.santosAvailable)
  }
}
