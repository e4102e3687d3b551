package repro.lake

import repro.core.{ColumnData, TableData}
import scala.util.Random

/** Synthetic data-lake generator (DESIGN.md §2, "datasets" substitution).
  *
  * Mirrors how the TUS benchmarks were built from Open Data: a set of base
  * tables ("templates") is partitioned row-wise and projected column-wise
  * into many derived lake tables; two tables are unionable iff they derive
  * from the same template.
  *
  * Semantics: every template column has a *contextual* semantic type
  * (`surface@template-group`) drawn over a *surface* token pool. Several
  * templates may share a surface pool — these are the paper's Figure-1
  * homographs ("Destination" cities in a travel-expenses table vs "Location"
  * cities in a bird-sighting table): identical value distributions,
  * different table context. Homograph density is the knob that separates
  * context-aware encoders from value-only ones.
  */
object LakeGen {

  /** A semantic type: `surface` identifies the shared token pool;
    * `contextual` is the ground-truth type (distinct across homographs).
    * `qualifiers` sizes the secondary token vocabulary of text cells: small
    * → same-surface columns overlap heavily (clean values); large → two
    * samples of the same surface share few tokens (noisy open-data values,
    * where table context is what stabilizes the column's identity).
    */
  final case class SemType(contextual: String, surface: String,
                           numeric: Boolean, poolSize: Int,
                           qualifiers: Int = 7)

  final case class Template(id: String, types: IndexedSeq[SemType])

  /** A generated lake with all ground truth the experiments need. */
  final case class Lake(
      name: String,
      tables: IndexedSeq[TableData],
      templateOf: Map[String, String],
      colContextualType: Map[(String, Int), String],
      colSurfaceType: Map[(String, Int), String],
      queries: IndexedSeq[String],
      templates: IndexedSeq[Template],
  ) {
    /** Unionable ground truth for a query: all tables of its template
      * (including the query itself, which is part of the lake — as in the
      * SANTOS/TUS benchmarks).
      */
    def groundTruth(queryId: String): Set[String] = {
      val tpl = templateOf(queryId)
      templateOf.iterator.collect { case (tid, t) if t == tpl => tid }.toSet
    }
    def totalColumns: Int = tables.iterator.map(_.numCols).sum
    def avgRows: Double =
      if (tables.isEmpty) 0 else tables.iterator.map(_.numRows).sum.toDouble / tables.size
    /** lake size in bytes = total cell-string bytes (Table 6 denominator) */
    def sizeBytes: Long =
      tables.iterator.flatMap(_.columns.iterator).flatMap(_.values.iterator)
        .map(v => if (v == null) 0L else v.length.toLong).sum
  }

  final case class LakeConfig(
      name: String,
      nTemplates: Int,
      derivedPerTemplate: Int,
      arityMin: Int,
      arityMax: Int,
      /** homograph columns per template (surfaces shared across templates) */
      sharedTypesPerTemplate: Int,
      /** size of the global pool of shared (homograph) surfaces */
      nSharedSurfaces: Int,
      rowsPerDerived: Int,
      poolSize: Int,
      /** fraction of derived columns kept from the template (≥ 2 kept) */
      colKeepFraction: Double,
      nQueries: Int,
      /** probability a cell is replaced with an out-of-pool noise token */
      noise: Double,
      seed: Long,
      /** templates are partitioned into groups of this size that share an
        * identical shared-surface set — the Figure-1 scenario (travel-expense
        * tables vs bird-sighting tables both carrying City and Year columns).
        * 1 = each template samples its shared surfaces independently.
        */
      confusionGroupSize: Int = 1,
      /** qualifier-vocabulary size of text cells (see [[SemType.qualifiers]]) */
      textQualifiers: Int = 7,
      /** pool size of *shared* (homograph) surfaces; generic types like
        * month/state have small vocabularies, making homograph columns
        * near-identical in value distribution. None = same as poolSize.
        */
      sharedPoolSize: Option[Int] = None,
  )

  // ---- value synthesis ----------------------------------------------------

  /** Deterministic token for slot `i` of a surface pool. Text surfaces get
    * two-token cells (e.g. "city12 north"); numeric surfaces get values from
    * a surface-characteristic range so homograph numeric columns (year,
    * rating, …) have identical distributions everywhere.
    */
  private def cellValue(t: SemType, i: Int): String =
    if (t.numeric) {
      // range depends only on the surface → homographs share distribution
      val base = math.abs(t.surface.hashCode) % 5
      base match {
        case 0 => (1900 + i % 120).toString                 // year-like
        case 1 => (i % 100).toString                        // small count
        case 2 => f"${(i % 1000) * 7.5}%.1f"                // money-like
        case 3 => f"${(i % 50) / 10.0 + 1.0}%.1f"           // rating-like
        case _ => (10000 + i % 90000).toString              // id-like
      }
    } else {
      // two-token cells; the qualifier stays within the surface's vocabulary
      // so it adds token variety without correlating unrelated columns
      s"${t.surface}v$i ${t.surface}q${i % t.qualifiers}"
    }

  private def drawCell(t: SemType, rnd: Random, noise: Double): String =
    if (noise > 0 && rnd.nextDouble() < noise)
      s"nz${rnd.nextInt(1000000)}" // out-of-domain dirt
    else cellValue(t, rnd.nextInt(t.poolSize))

  // ---- template & lake construction ---------------------------------------

  /** Build the template set for a config: each template combines unique
    * surfaces (its own pools) with `sharedTypesPerTemplate` surfaces drawn
    * from the global shared set (the homographs). Roughly a third of all
    * columns are numeric, as in Open Data.
    */
  def makeTemplates(cfg: LakeConfig): IndexedSeq[Template] = {
    val rnd = new Random(cfg.seed)
    val sharedSurfaces = (0 until cfg.nSharedSurfaces).map { i =>
      val numeric = i % 3 == 0
      (s"shared$i", numeric)
    }
    // shared-surface set per confusion group (all templates of a group get
    // the same set, so their tables collide on several columns at once)
    val groupShared: Int => IndexedSeq[(String, Boolean)] = {
      val cache = scala.collection.mutable.HashMap[Int, IndexedSeq[(String, Boolean)]]()
      g => cache.getOrElseUpdate(g, {
        val r = new Random(cfg.seed * 31 + g)
        r.shuffle(sharedSurfaces).take(cfg.sharedTypesPerTemplate).toIndexedSeq
      })
    }
    (0 until cfg.nTemplates).map { ti =>
      val arity  = cfg.arityMin + rnd.nextInt(cfg.arityMax - cfg.arityMin + 1)
      val nShared = math.min(cfg.sharedTypesPerTemplate, arity - 1)
      val sharedPool =
        if (cfg.confusionGroupSize <= 1) rnd.shuffle(sharedSurfaces)
        else groupShared(ti / cfg.confusionGroupSize)
      val sharedPoolSz = cfg.sharedPoolSize.getOrElse(cfg.poolSize)
      val shared = sharedPool.take(nShared).map { case (s, num) =>
        SemType(s"$s@t$ti", s, num, sharedPoolSz, cfg.textQualifiers)
      }
      val unique = (0 until (arity - nShared)).map { ci =>
        val numeric = rnd.nextDouble() < 0.25
        val surface = s"u${ti}c$ci"
        SemType(s"$surface@t$ti", surface, numeric, cfg.poolSize, cfg.textQualifiers)
      }
      Template(s"t$ti", rnd.shuffle(unique ++ shared).toIndexedSeq)
    }
  }

  /** Generate the full lake for a config. Deterministic in the seed. */
  def generate(cfg: LakeConfig): Lake = {
    val templates = makeTemplates(cfg)
    val rnd = new Random(cfg.seed + 1)
    val tables  = scala.collection.mutable.ArrayBuffer[TableData]()
    val tplOf   = scala.collection.mutable.HashMap[String, String]()
    val ctxType = scala.collection.mutable.HashMap[(String, Int), String]()
    val sfcType = scala.collection.mutable.HashMap[(String, Int), String]()

    templates.foreach { tpl =>
      (0 until cfg.derivedPerTemplate).foreach { d =>
        val tid = s"${tpl.id}__$d"
        // column projection: keep each column with colKeepFraction, ≥ 2 kept
        val kept0 = tpl.types.indices.filter(_ => rnd.nextDouble() < cfg.colKeepFraction)
        val kept =
          if (kept0.size >= math.min(2, tpl.types.size)) kept0
          else rnd.shuffle(tpl.types.indices.toIndexedSeq).take(math.min(2, tpl.types.size)).sorted
        val order = rnd.shuffle(kept.toIndexedSeq) // column order is not a signal
        val cols = order.map { typeIdx =>
          val st = tpl.types(typeIdx)
          val values = IndexedSeq.fill(cfg.rowsPerDerived)(drawCell(st, rnd, cfg.noise))
          ColumnData(st.surface, values)
        }
        tables += TableData(tid, cols)
        tplOf(tid) = tpl.id
        order.zipWithIndex.foreach { case (typeIdx, ci) =>
          ctxType((tid, ci)) = tpl.types(typeIdx).contextual
          sfcType((tid, ci)) = tpl.types(typeIdx).surface
        }
      }
    }

    // queries: round-robin over templates so every template is probed
    val byTpl = tables.groupBy(t => tplOf(t.id)).view.mapValues(_.map(_.id)).toMap
    val tplIds = templates.map(_.id)
    val queries = (0 until cfg.nQueries).map { qi =>
      val tpl = tplIds(qi % tplIds.size)
      val ids = byTpl(tpl)
      ids(qi / tplIds.size % ids.size)
    }.distinct

    Lake(cfg.name, tables.toIndexedSeq, tplOf.toMap, ctxType.toMap, sfcType.toMap,
         queries.toIndexedSeq, templates)
  }

  /** tables in a Table 4 micro-benchmark lake */
  private val MicroTables = 470
  /** seed of the micro-benchmark lake's query draw */
  private val MicroSeed = 11L

  /** Table 4 micro-benchmark lake: `MicroTables` tables where 25% share
    * the query's template ("positive class") and the remaining 75% are split
    * evenly among `nNegClasses` other templates.
    */
  def microLake(base: Lake, nNegClasses: Int): Lake = {
    val rnd = new Random(MicroSeed)
    val tplIds = base.templates.map(_.id)
    require(tplIds.size > nNegClasses, "need enough templates")
    val posTpl = tplIds.head
    val negTpls = tplIds.tail.take(nNegClasses)
    val byTpl = base.tables.groupBy(t => base.templateOf(t.id))
    val nPos = MicroTables / 4
    val nPerNeg = (MicroTables - nPos) / nNegClasses
    def sample(tpl: String, n: Int): IndexedSeq[TableData] = {
      val pool = byTpl(tpl)
      (0 until n).map(i => pool(i % pool.size))
    }
    val chosen = (sample(posTpl, nPos) ++ negTpls.flatMap(sample(_, nPerNeg)))
      .distinctBy(_.id).toIndexedSeq
    val ids = chosen.map(_.id).toSet
    val queries = rnd.shuffle(sample(posTpl, nPos).map(_.id).distinct).take(10)
    Lake(s"${base.name}-micro$nNegClasses", chosen,
         base.templateOf.filter(kv => ids(kv._1)),
         base.colContextualType.filter(kv => ids(kv._1._1)),
         base.colSurfaceType.filter(kv => ids(kv._1._1)),
         queries.toIndexedSeq, base.templates)
  }
}
