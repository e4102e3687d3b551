package repro.exp

import repro.core._
import repro.index.{Hnsw, SimHashLsh, VectorIndex}
import repro.lake.Benchmarks.Profile
import repro.lake.LakeGen
import repro.lake.LakeGen.Lake
import repro.baselines._

/** Shared experiment drivers. Every jobs/ main and every bench suite calls
  * these, so the bench numbers and the jobs/ numbers are the same code path.
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

  sealed trait Mode { def name: String }
  case object Linear  extends Mode { val name = "Linear" }
  case object Pruning extends Mode { val name = "Pruning" }
  case object Lsh     extends Mode { val name = "LSH Index" }
  case object HnswIdx extends Mode { val name = "HNSW Index" }

  private type Query = (IndexedSeq[Array[Float]], Int) => Search.Result

  /** The one mode dispatch: a top-k query function over `emb` under `mode`,
    * with the mode's searcher and index built once for all its queries.
    */
  private def queryFn(emb: Embedded, mode: Mode, tau: Double): Query = {
    val searcher = new UnionSearcher(emb.lake, tau)
    def indexed(mkIndex: Int => VectorIndex): Query = {
      val index = Search.buildColumnIndex(emb.lake, mkIndex)
      searcher.queryWithIndex(_, _, index)
    }
    mode match {
      case Linear  => searcher.queryLinear
      case Pruning => searcher.queryPruning(_, _)
      case Lsh     => indexed(d => new SimHashLsh(d, seed = 7))
      case HnswIdx => indexed(d => new Hnsw(d, seed = 7))
    }
  }

  /** Evaluate one embedding-based method on a lake under a search mode. */
  def evalEmbedding(lake: Lake, emb: Embedded, k: Int, mode: Mode,
                    tau: Double = DefaultTau,
                    queries: Option[IndexedSeq[String]] = None): EvalRow = {
    val query = queryFn(emb, mode, tau)
    summarize(lake.name, emb.method + modeSuffix(mode), k,
      queries.getOrElse(lake.queries).map { qid =>
        val res = query(emb.byId(qid), k)
        (res.ranked.map(_._1), lake.groundTruth(qid), res.elapsedNanos, res.verifications)
      })
  }

  /** Exact modes (Linear, Pruning) return the same results, so neither is named. */
  private def modeSuffix(mode: Mode): String = mode match {
    case Linear | Pruning => ""
    case m                => s"+${m.name}"
  }

  /** Evaluate the D3L baseline (its own pairwise scorer, linear scan). */
  def evalD3L(lake: Lake, k: Int): EvalRow = {
    val byId     = lake.tables.map(t => t.id -> t).toMap
    val searcher = new D3L.Searcher(lake.tables)
    summarize(lake.name, "d3l", k, lake.queries.map { qid =>
      val t0  = System.nanoTime()
      val res = searcher.query(byId(qid), k)
      (res.map(_._1), lake.groundTruth(qid), System.nanoTime() - t0, lake.tables.size.toLong)
    })
  }

  /** Evaluate the SANTOS baseline (KB classes + relationships). */
  def evalSantos(lake: Lake, k: Int, kbCoverage: Double): EvalRow = {
    val byId     = lake.tables.map(t => t.id -> t).toMap
    val santos   = SantosLike.build(lake, kbCoverage)
    val searcher = new santos.Searcher(lake.tables)
    summarize(lake.name, "santos", k, lake.queries.map { qid =>
      val t0  = System.nanoTime()
      val res = searcher.query(byId(qid), k)
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

  /** Table 3: all six methods on one effectiveness benchmark. */
  def effectiveness(profile: Profile,
                    trainCfg: Contrastive.TrainConfig = Contrastive.TrainConfig())
      : (Lake, LakeModels, Seq[EvalRow]) = {
    val lake   = LakeGen.generate(profile.cfg)
    val models = trainModels(lake, profile, trainCfg)
    val k      = profile.k
    val rows = scala.collection.mutable.ArrayBuffer[EvalRow]()
    rows += evalEmbedding(lake, embedLake(lake, models.singleCol), k, Pruning)
    rows += evalEmbedding(lake, embedLake(lake, models.sato), k, Pruning)
    rows += evalEmbedding(lake, embedLake(lake, models.sherlock), k, Pruning)
    if (profile.santosAvailable) rows += evalSantos(lake, k, profile.santosKbCoverage)
    rows += evalD3L(lake, k)
    rows += evalEmbedding(lake, embedLake(lake, models.starmie), k, Pruning)
    (lake, models, rows.toSeq)
  }

  /** Tables 5/8: the four design choices for a given embedding. */
  def designChoices(lake: Lake, emb: Embedded, k: Int): Seq[EvalRow] =
    Seq(
      evalEmbedding(lake, emb, k, Linear).copy(method = s"${emb.method}/Linear"),
      evalEmbedding(lake, emb, k, Pruning).copy(method = s"${emb.method}/Pruning"),
      evalEmbedding(lake, emb, k, Lsh).copy(method = s"${emb.method}/LSH"),
      evalEmbedding(lake, emb, k, HnswIdx).copy(method = s"${emb.method}/HNSW"),
    )

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
      val r60  = evalEmbedding(micro, microEmb, 60, Pruning, queries = Some(micro.queries))
      val r120 = evalEmbedding(micro, microEmb, 120, Pruning, queries = Some(micro.queries))
      (c, r60.map, r120.map)
    }
  }

  /** Table 6: memory usage of the design choices relative to lake size. */
  final case class MemoryRow(method: String, memBytes: Long, overheadPct: Double)
  def memoryOverhead(lake: Lake, emb: Embedded): Seq[MemoryRow] = {
    val dim = emb.lake.head._2.head.length
    val embBytes = lake.totalColumns.toLong * dim * 4L
    val lsh  = Search.buildColumnIndex(emb.lake, d => new SimHashLsh(d))
    val hnsw = Search.buildColumnIndex(emb.lake, d => new Hnsw(d))
    val lakeBytes = lake.sizeBytes.toDouble
    Seq(
      MemoryRow("No Index", embBytes, 100.0 * embBytes / lakeBytes),
      MemoryRow("LSH Index", lsh.memoryBytes, 100.0 * lsh.memoryBytes / lakeBytes),
      MemoryRow("HNSW Index", hnsw.memoryBytes, 100.0 * hnsw.memoryBytes / lakeBytes),
    )
  }

  /** Fig 10: average query time of the four design choices as the lake
    * grows. Returns (size, mode, avgMillis, avgVerifications).
    */
  def scalability(lake: Lake, emb: Embedded, k: Int, sizes: Seq[Int],
                  nQueries: Int = 10): Seq[(Int, String, Double, Double)] = {
    val queries = lake.queries.take(nQueries)
    sizes.flatMap { n =>
      val subset    = emb.lake.take(n)
      val subsetIds = subset.map(_._1).toSet
      // every query must be present in the sub-lake
      val subLake = subset ++ queries.filterNot(subsetIds.contains).map(q => q -> emb.byId(q))
      val subEmb  = Embedded(emb.method, subLake)
      Seq(Linear, Pruning, Lsh, HnswIdx).map { mode =>
        val query   = queryFn(subEmb, mode, DefaultTau)
        val results = queries.map(qid => query(emb.byId(qid), k))
        val ms  = results.map(_.elapsedNanos.toDouble / 1e6)
        val ver = results.map(_.verifications.toDouble)
        (n, mode.name, Metrics.mean(ms), Metrics.mean(ver))
      }
    }
  }
}
