package repro.exp

import org.apache.spark.sql.SparkSession
import repro.cluster.ColumnClustering
import repro.core._
import repro.exp.Experiments._
import repro.lake.{Benchmarks, LakeGen}
import repro.lake.LakeGen.Lake
import repro.ml.DataDiscoveryML

/** The drivers of Tables 2, 5, 7, 8 and 10 (the rest are in `Experiments`,
  * under the same one-driver rule), plus one renderer per paper table. The
  * drivers return typed rows, which the bench suites assert on; the
  * renderers are printed by bench suites and jobs/ mains alike.
  */
object Tables {

  // ---- Table 2: benchmark statistics ---------------------------------------

  final case class T2Row(name: String, tables: Int, cols: Int, avgRows: Double,
                         sizeMb: Double)

  /** Table 2 over the three effectiveness benchmarks and the two
    * scalability corpora, at the given sizes.
    */
  def table2(santosLargeTables: Int, wdcTables: Int): Seq[T2Row] =
    (Benchmarks.effectiveness :+ Benchmarks.santosLarge(santosLargeTables) :+
        Benchmarks.wdc(wdcTables)).map { p =>
      val lake = LakeGen.generate(p.cfg)
      T2Row(lake.name, lake.tables.size, lake.totalColumns, lake.avgRows,
            lake.sizeBytes / 1e6)
    }

  def renderT2(rows: Seq[T2Row]): String =
    ("| Benchmark | # Tables | # Cols | Avg # Rows | Size (MB) |" ::
     "|---|---|---|---|---|" ::
     rows.toList.map(r =>
       f"| ${r.name} | ${r.tables} | ${r.cols} | ${r.avgRows}%.0f | ${r.sizeMb}%.1f |"))
      .mkString("\n")

  // ---- Table 3: effectiveness ----------------------------------------------

  def renderT3(results: Seq[Effectiveness]): String = {
    val sb = new StringBuilder
    sb ++= "| Benchmark | Method | MAP@k | R@k | IDEAL R@k | k |\n|---|---|---|---|---|---|\n"
    results.foreach { res =>
      res.rows.foreach { r =>
        sb ++= f"| ${r.benchmark} | ${r.method} | ${r.map}%.3f | ${r.r}%.3f | ${r.ideal}%.3f | ${r.k} |\n"
      }
    }
    sb.toString
  }

  // ---- Table 4: negative-class micro-benchmark -----------------------------

  def renderT4(rows: Seq[(Int, Double, Double)]): String =
    ("| # Negative Classes | MAP@60 | MAP@120 |" :: "|---|---|---|" ::
      rows.toList.map { case (c, m60, m120) => f"| $c | $m60%.3f | $m120%.3f |" })
      .mkString("\n")

  // ---- Tables 5 & 8: design choices × methods -------------------------------

  final case class T58Row(method: String, technique: Mode, map: Double,
                          p: Double, r: Double, queryMs: Double, verifications: Double)

  /** Table 5: the four design choices for Starmie on `santosSmall`. */
  def table5(santosSmall: Effectiveness): Seq[T58Row] =
    table58(santosSmall, santosSmall.embeddings.take(1))

  /** Table 8: the four design choices for every embedding method on `santosSmall`. */
  def table8(santosSmall: Effectiveness): Seq[T58Row] =
    table58(santosSmall, santosSmall.embeddings)

  private def table58(res: Effectiveness, embeddings: Seq[Embedded]): Seq[T58Row] =
    embeddings.flatMap { emb =>
      designChoices(res.lake, emb, res.profile.k).map { case (mode, row) =>
        T58Row(emb.method, mode, row.map, row.p, row.r, row.avgQueryMillis, row.avgVerifications)
      }
    }

  def renderT58(rows: Seq[T58Row]): String =
    ("| Method | Technique | MAP@10 | P@10 | R@10 | Query Time (ms) |" ::
     "|---|---|---|---|---|---|" ::
     rows.toList.map(r =>
       f"| ${r.method} | ${r.technique.name} | ${r.map}%.3f | ${r.p}%.3f | ${r.r}%.3f | ${r.queryMs}%.1f |"))
      .mkString("\n")

  // ---- Table 6: memory overhead ---------------------------------------------

  def renderT6(lake: Lake, rows: Seq[MemoryRow]): String =
    (f"Corpus: ${lake.tables.size} tables, ${lake.totalColumns} columns, avg rows ${lake.avgRows}%.0f" ::
     f"Data lake size: ${lake.sizeBytes / 1e6}%.1f MB" ::
     "| Method | Memory Usage (MB) | Space Overhead |" :: "|---|---|---|" ::
     rows.toList.map(r =>
       f"| ${r.method} | ${r.memBytes / 1e6}%.1f | ${r.overheadPct}%.2f%% |"))
      .mkString("\n")

  // ---- Tables 7 & 11: ML data discovery -------------------------------------

  final case class T7Result(tasks: IndexedSeq[DataDiscoveryML.TaskResult],
                            summary: DataDiscoveryML.Summary)

  /** Encoder training of the ML case study: at most 200 steps over its
    * 100-table corpus (75 lake tables and the 25 query tables).
    */
  private val Table7Train = Contrastive.TrainConfig(maxSteps = 200, epochs = 40)

  /** Tables 7/11 on the paper's 25 tasks, 200 query rows each. */
  def table7(spark: SparkSession): T7Result = {
    val ml = DataDiscoveryML.generate(nTasks = 25, rows = 200)
    // train the contextualized encoder on the ML lake (queries included, as
    // WDC query tables are lake members in the paper's case study)
    val feat = new Featurizer()
    val corpus = ml.lake ++ ml.tasks.map(_.query)
    val w = Contrastive.trainMultiColumn(corpus, feat, Table7Train)
    val enc = new StarmieEncoder(feat, w)
    val results = DataDiscoveryML.runAll(spark, ml, enc)
    T7Result(results, DataDiscoveryML.summarize(results))
  }

  def renderT7(res: T7Result): String = {
    val s = res.summary
    def impr(m: Double): String = f"${100.0 * (s.avgNoJoin - m) / s.avgNoJoin}%.2f%%"
    Seq(
      "|  | NoJoin | Jaccard | Overlap | Starmie |",
      "|---|---|---|---|---|",
      f"| Avg. MSE | ${s.avgNoJoin}%.4f | ${s.avgJaccard}%.4f | ${s.avgOverlap}%.4f | ${s.avgStarmie}%.4f |",
      f"| Improvement | - | ${impr(s.avgJaccard)} | ${impr(s.avgOverlap)} | ${impr(s.avgStarmie)} |",
      f"| #improved | - | ${s.improvedJaccard} | ${s.improvedOverlap} | ${s.improvedStarmie} |",
    ).mkString("\n")
  }

  def renderT11(res: T7Result): String =
    ("| task | #rows | NoJoin | Jaccard | Overlap | Starmie |" ::
     "|---|---|---|---|---|---|" ::
     res.tasks.toList.map(t =>
       f"| ${t.taskId} | ${t.rows} | ${t.noJoin}%.4f | ${t.jaccardMse}%.4f | ${t.overlapMse}%.4f | ${t.starmieMse}%.4f |"))
      .mkString("\n")

  // ---- Tables 9 & 10: column clustering -------------------------------------

  final case class T10Row(method: String, nClusters: Int, avgSize: Double,
                          purity: Double, theta: Double)

  /** Table 10's rows on its corpus, plus Starmie's clusters for Table 9. */
  final case class T10Result(lake: Lake, rows: Seq[T10Row], starmie: ColumnClustering.Result)

  /** Tables 9/10 on `Benchmarks.clustering`, every method at one target
    * cluster count.
    */
  def table10(): T10Result = {
    val profile = Benchmarks.clustering
    val lake    = LakeGen.generate(profile.cfg)
    // θ is matched so every method lands near the same cluster count — the
    // paper's fairness control ("similar numbers of clusters", ≈2.3k for
    // 119k columns); we use the same 1:5 column:cluster granularity
    val target  = math.max(lake.colContextualType.values.toSet.size, lake.totalColumns / 5)
    val results = new LakeModels(lake, profile, Contrastive.TrainConfig()).encoders.map { enc =>
      val (graph, labels) = ColumnClustering.buildGraph(lake, enc)
      enc.name -> ColumnClustering.evaluateAtTargetCount(graph, labels, target)
    }
    T10Result(lake, results.map { case (method, r) =>
      T10Row(method, r.nClusters, r.avgSize, r.purity, r.theta) }, results.head._2)
  }

  def renderT10(rows: Seq[T10Row]): String =
    ("| Method | n_clusters | avg. cluster size | Purity (%) | θ |" ::
     "|---|---|---|---|---|" ::
     rows.toList.map(r =>
       f"| ${r.method} | ${r.nClusters} | ${r.avgSize}%.2f | ${100 * r.purity}%.2f | ${r.theta}%.2f |"))
      .mkString("\n")

  /** clusters Table 9's qualitative print shows */
  private val T9Clusters = 3

  /** Table 9-style qualitative print: sample values of the `T9Clusters` largest clusters. */
  def renderT9(lake: Lake, result: ColumnClustering.Result): String = {
    val byId = lake.tables.map(t => t.id -> t).toMap
    result.clusters.sortBy(-_.size).take(T9Clusters).zipWithIndex.map { case (cluster, i) =>
      val sample = cluster.take(3).map { key =>
        val Array(tid, ci) = key.split('#')
        byId(tid).columns(ci.toInt).values.take(3).mkString(", ")
      }
      s"Cluster ${i + 1} (${cluster.size} cols): " + sample.mkString(" | ")
    }.mkString("\n")
  }

  // ---- Fig 10: scalability ---------------------------------------------------

  def renderFig10(sweep: Sweep): String =
    (s"Lake: ${sweep.lake}" ::
     "| Lake size (tables) | Technique | Avg query (ms) | Avg verifications |" ::
     "|---|---|---|---|" ::
     sweep.rows.toList.map(r =>
       f"| ${r.size} | ${r.mode.name} | ${r.queryMs}%.2f | ${r.verifications}%.0f |"))
      .mkString("\n")
}
