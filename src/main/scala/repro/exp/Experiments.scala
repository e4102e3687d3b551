package repro.exp

import repro.core._
import repro.index.{Hnsw, SimHashLsh, VectorIndex}
import repro.lake.Benchmarks.Profile
import repro.lake.LakeGen
import repro.lake.LakeGen.Lake
import repro.baselines._

/** The experiments of Tables 3–6, 8 and Fig 10. Every jobs/ main and every
  * bench suite calls these (or `Tables`, for the tables whose code does work
  * of its own), so the bench numbers and the jobs/ numbers are the same code
  * path.
  */
object Experiments {

  /** Edge threshold τ for the bipartite graph (§4.1). Outcome of the two
    * sweeps it was chosen from:
    *  - a held-out 64-table lake (seed 77, k = 5), 24 training configs
    *    (lr × steps × anchor × dropout): τ = 0.5 matched or beat τ = 0.6 in
    *    22 of 24, best MAP 0.970 at both; untrained encoder 0.914 vs 0.875;
    *  - santosSmall, 30 queries, default training: Starmie MAP 0.934–0.946
    *    for τ ∈ {0.35, 0.40, …, 0.60}, 0.940 at 0.45.
    * MAP is flat below 0.6, so τ sits mid-range rather than at a sweep peak.
    */
  val DefaultTau = 0.45

  final case class Embedded(method: String,
                            lake: IndexedSeq[(String, IndexedSeq[Array[Float]])]) {
    lazy val byId: Map[String, IndexedSeq[Array[Float]]] = lake.toMap
  }

  final case class EvalRow(benchmark: String, method: String, k: Int,
                           map: Double, p: Double, r: Double, ideal: Double,
                           avgQueryMillis: Double, avgVerifications: Double)

  // ---- offline stage -------------------------------------------------------

  /** Train the two Starmie encoders (multi-column + SingleCol) and the
    * Sherlock/SATO baselines for a lake.
    */
  final case class LakeModels(feat: Featurizer, starmie: StarmieEncoder,
                              singleCol: SingleColEncoder,
                              sherlock: SherlockEncoder, sato: SatoEncoder)

  def trainModels(lake: Lake, profile: Profile,
                  trainCfg: Contrastive.TrainConfig = Contrastive.TrainConfig()): LakeModels = {
    val feat = new Featurizer()
    val wMulti  = Contrastive.trainMultiColumn(lake.tables, feat, trainCfg)
    val wSingle = Contrastive.trainSingleColumn(lake.tables, feat,
      trainCfg.copy(maxSteps = trainCfg.maxSteps / 2))
    val sherlock = SherlockEncoder.train(lake, feat, profile.sherlockKnownFraction)
    val sato     = new SatoEncoder(feat, sherlock)
    LakeModels(feat, new StarmieEncoder(feat, wMulti),
               new SingleColEncoder(feat, wSingle), sherlock, sato)
  }

  /** Model inference over the whole lake (the offline stage of Figure 2),
    * in lake order.
    */
  def embedLake(lake: Lake, enc: ColumnEncoder): Embedded =
    Embedded(enc.name, lake.tables.map(t => t.id -> enc.encodeTable(t)))

  // ---- online stage --------------------------------------------------------

  /** A design choice of Table 5: its label and, for the two index-backed
    * choices, the column index it queries. Every experiment that builds an
    * index (Tables 5/6/8, Fig 10) builds it from here.
    */
  sealed abstract class Mode(val name: String)
  sealed abstract class IndexMode(name: String, val mkIndex: Int => VectorIndex) extends Mode(name)
  case object Linear  extends Mode("Linear")
  case object Pruning extends Mode("Pruning")
  case object Lsh     extends IndexMode("LSH", d => new SimHashLsh(d, seed = 7))
  case object HnswIdx extends IndexMode("HNSW", d => new Hnsw(d, seed = 7))
  val Modes: Seq[Mode] = Seq(Linear, Pruning, Lsh, HnswIdx)

  private type Query = (IndexedSeq[Array[Float]], Int) => Search.Result

  /** The one mode dispatch: a top-k query function over `emb` under `mode`,
    * with the mode's searcher and index built once for all its queries.
    */
  private def queryFn(emb: Embedded, mode: Mode): Query = {
    val searcher = new UnionSearcher(emb.lake, DefaultTau)
    mode match {
      case Linear  => searcher.queryLinear
      case Pruning => searcher.queryPruning(_, _)
      case m: IndexMode =>
        val index = Search.buildColumnIndex(emb.lake, m.mkIndex)
        searcher.queryWithIndex(_, _, index)
    }
  }

  /** Evaluate one embedding-based method on a lake's queries under a search mode. */
  def evalEmbedding(lake: Lake, emb: Embedded, k: Int, mode: Mode): EvalRow = {
    val query = queryFn(emb, mode)
    // one untimed pass, so the timed one does not depend on what ran before
    lake.queries.foreach(qid => query(emb.byId(qid), k))
    summarize(lake.name, emb.method, k, lake.queries.map { qid =>
      val res = query(emb.byId(qid), k)
      (res.ranked.map(_._1), lake.groundTruth(qid), res.elapsedNanos, res.verifications)
    })
  }

  /** Evaluate a baseline with its own table scorer (D3L, SANTOS). `search`
    * returns the ranked top-k of a query table; each query counts every
    * lake table as verified.
    */
  private def evalBaseline(lake: Lake, method: String, k: Int,
                           search: TableData => Seq[(String, Double)]): EvalRow = {
    val byId = lake.tables.map(t => t.id -> t).toMap
    summarize(lake.name, method, k, lake.queries.map { qid =>
      val t0  = System.nanoTime()
      val res = search(byId(qid))
      (res.map(_._1), lake.groundTruth(qid), System.nanoTime() - t0, lake.tables.size.toLong)
    })
  }

  private def summarize(bench: String, method: String, k: Int,
      perQuery: Seq[(Seq[String], Set[String], Long, Long)]): EvalRow = {
    val maps   = perQuery.map { case (r, gt, _, _) => Metrics.apAtK(r, gt, k) }
    val ps     = perQuery.map { case (r, gt, _, _) => Metrics.precisionAtK(r, gt, k) }
    val rs     = perQuery.map { case (r, gt, _, _) => Metrics.recallAtK(r, gt, k) }
    val ideals = perQuery.map { case (_, gt, _, _) => Metrics.idealRecallAtK(gt, k) }
    val times  = perQuery.map(_._3.toDouble / 1e6)
    val vers   = perQuery.map(_._4.toDouble)
    EvalRow(bench, method, k, Metrics.mean(maps), Metrics.mean(ps), Metrics.mean(rs),
            Metrics.mean(ideals), Metrics.mean(times), Metrics.mean(vers))
  }

  // ---- composite experiments ----------------------------------------------

  /** Table 3 result for one benchmark: its lake and trained models (reused
    * by Tables 4/5/8) and one row per method.
    */
  final case class Effectiveness(profile: Profile, lake: Lake, models: LakeModels,
                                 rows: Seq[EvalRow])

  /** Table 3: all six methods on one effectiveness benchmark. */
  def effectiveness(profile: Profile,
                    trainCfg: Contrastive.TrainConfig = Contrastive.TrainConfig()): Effectiveness = {
    val lake   = LakeGen.generate(profile.cfg)
    val models = trainModels(lake, profile, trainCfg)
    val k      = profile.k
    def embedded(enc: ColumnEncoder) = evalEmbedding(lake, embedLake(lake, enc), k, Pruning)
    val rows = scala.collection.mutable.ArrayBuffer[EvalRow]()
    rows += embedded(models.singleCol)
    rows += embedded(models.sato)
    rows += embedded(models.sherlock)
    if (profile.santosAvailable) {
      val kb     = SantosLike.build(lake, profile.santosKbCoverage)
      val santos = new kb.Searcher(lake.tables)
      rows += evalBaseline(lake, "santos", k, santos.query(_, k))
    }
    val d3l = new D3L.Searcher(lake.tables)
    rows += evalBaseline(lake, "d3l", k, d3l.query(_, k))
    rows += embedded(models.starmie)
    Effectiveness(profile, lake, models, rows.toSeq)
  }

  /** Tables 5/8: the four design choices for a given embedding. */
  def designChoices(lake: Lake, emb: Embedded, k: Int): Seq[(Mode, EvalRow)] =
    Modes.map(mode => mode -> evalEmbedding(lake, emb, k, mode))

  /** Table 4: MAP vs number of negative classes on micro-lakes. The encoder
    * is re-trained *on each micro-lake* — that is the experiment's point:
    * with few classes, two random tables are often unionable, so the
    * contrastive "random negatives" assumption is violated during training.
    */
  def negativeClasses(base: Lake, feat: Featurizer,
                      nNegClasses: Seq[Int] = 2 to 9,
                      trainCfg: Contrastive.TrainConfig =
                        Contrastive.TrainConfig(maxSteps = 500, epochs = 10))
      : Seq[(Int, Double, Double)] = {
    nNegClasses.map { c =>
      val micro = LakeGen.microLake(base, c)
      val w     = Contrastive.trainMultiColumn(micro.tables, feat, trainCfg)
      val microEmb = embedLake(micro, new StarmieEncoder(feat, w))
      val r60  = evalEmbedding(micro, microEmb, 60, Pruning)
      val r120 = evalEmbedding(micro, microEmb, 120, Pruning)
      (c, r60.map, r120.map)
    }
  }

  /** Table 6: memory usage of the design choices relative to lake size. */
  final case class MemoryRow(method: String, memBytes: Long, overheadPct: Double)
  def memoryOverhead(lake: Lake, emb: Embedded): Seq[MemoryRow] = {
    val lakeBytes = lake.sizeBytes.toDouble
    def row(method: String, bytes: Long) = MemoryRow(method, bytes, 100.0 * bytes / lakeBytes)
    val dim = emb.lake.head._2.head.length
    row("No Index", lake.totalColumns.toLong * dim * 4L) +:
      Seq(Lsh, HnswIdx).map(m => row(m.name, Search.buildColumnIndex(emb.lake, m.mkIndex).memoryBytes))
  }

  /** Fig 10: average query time of the four design choices as the lake
    * grows. Returns (size, mode, avgMillis, avgVerifications).
    */
  def scalability(lake: Lake, emb: Embedded, k: Int, sizes: Seq[Int],
                  nQueries: Int = 10): Seq[(Int, Mode, Double, Double)] = {
    val queries = lake.queries.take(nQueries)
    sizes.flatMap { n =>
      val subset    = emb.lake.take(n)
      val subsetIds = subset.map(_._1).toSet
      // every query must be present in the sub-lake
      val subLake = subset ++ queries.filterNot(subsetIds.contains).map(q => q -> emb.byId(q))
      val subEmb  = Embedded(emb.method, subLake)
      Modes.map { mode =>
        val query   = queryFn(subEmb, mode)
        // one untimed pass, as in evalEmbedding
        queries.foreach(qid => query(emb.byId(qid), k))
        val results = queries.map(qid => query(emb.byId(qid), k))
        val ms  = results.map(_.elapsedNanos.toDouble / 1e6)
        val ver = results.map(_.verifications.toDouble)
        (n, mode, Metrics.mean(ms), Metrics.mean(ver))
      }
    }
  }
}
