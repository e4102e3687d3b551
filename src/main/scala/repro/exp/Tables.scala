package repro.exp

import org.apache.spark.sql.SparkSession
import repro.cluster.ColumnClustering
import repro.core._
import repro.exp.Experiments.{Effectiveness, Embedded, MemoryRow, Mode}
import repro.lake.LakeGen
import repro.lake.Benchmarks.Profile
import repro.lake.LakeGen.Lake
import repro.ml.DataDiscoveryML

/** The paper tables whose code does work of its own (Tables 2, 5/8, 7 and
  * 10), plus one renderer per paper table. The table functions
  * return structured rows (asserted by the bench suites); the renderers are
  * printed by bench suites and jobs/ mains alike, so bench output and jobs/
  * output share a code path.
  */
object Tables {

  // ---- Table 2: benchmark statistics ---------------------------------------

  final case class T2Row(name: String, tables: Int, cols: Int, avgRows: Double,
                         sizeMb: Double)

  def table2(profiles: Seq[Profile]): Seq[T2Row] =
    profiles.map { p =>
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
                          p: Double, r: Double, queryMs: Double)

  /** For each named embedding, run the four design choices. */
  def table58(lake: Lake, embeddings: Seq[Embedded], k: Int): Seq[T58Row] =
    embeddings.flatMap { emb =>
      Experiments.designChoices(lake, emb, k).map { case (mode, row) =>
        T58Row(emb.method, mode, row.map, row.p, row.r, row.avgQueryMillis)
      }
    }

  def renderT58(rows: Seq[T58Row]): String =
    ("| Method | Technique | MAP@10 | P@10 | R@10 | Query Time (ms) |" ::
     "|---|---|---|---|---|---|" ::
     rows.toList.map(r =>
       f"| ${r.method} | ${r.technique.name} | ${r.map}%.3f | ${r.p}%.3f | ${r.r}%.3f | ${r.queryMs}%.1f |"))
      .mkString("\n")

  // ---- Table 6: memory overhead ---------------------------------------------

  def renderT6(lakeMb: Double, rows: Seq[MemoryRow]): String =
    (f"Data lake size: $lakeMb%.1f MB" ::
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

  def table10(lake: Lake, encoders: Seq[ColumnEncoder],
              targetClusters: Int): (Seq[T10Row], Map[String, ColumnClustering.Result]) = {
    val results = encoders.map { enc =>
      val (graph, labels) = ColumnClustering.buildGraph(lake, enc)
      enc.name -> ColumnClustering.evaluateAtTargetCount(graph, labels, targetClusters)
    }.toMap
    val rows = encoders.map { enc =>
      val r = results(enc.name)
      T10Row(enc.name, r.nClusters, r.avgSize, r.purity, r.theta)
    }
    (rows, results)
  }

  def renderT10(rows: Seq[T10Row]): String =
    ("| Method | n_clusters | avg. cluster size | Purity (%) | θ |" ::
     "|---|---|---|---|---|" ::
     rows.toList.map(r =>
       f"| ${r.method} | ${r.nClusters} | ${r.avgSize}%.2f | ${100 * r.purity}%.2f | ${r.theta}%.2f |"))
      .mkString("\n")

  /** Table 9-style qualitative print: sample values of the largest clusters. */
  def renderT9(lake: Lake, result: ColumnClustering.Result, n: Int = 3): String = {
    val byId = lake.tables.map(t => t.id -> t).toMap
    result.clusters.sortBy(-_.size).take(n).zipWithIndex.map { case (cluster, i) =>
      val sample = cluster.take(3).map { key =>
        val Array(tid, ci) = key.split('#')
        byId(tid).columns(ci.toInt).values.take(3).mkString(", ")
      }
      s"Cluster ${i + 1} (${cluster.size} cols): " + sample.mkString(" | ")
    }.mkString("\n")
  }

  // ---- Fig 10: scalability ---------------------------------------------------

  def renderFig10(rows: Seq[(Int, Mode, Double, Double)]): String =
    ("| Lake size (tables) | Technique | Avg query (ms) | Avg verifications |" ::
     "|---|---|---|---|" ::
     rows.toList.map { case (n, mode, ms, v) => f"| $n | ${mode.name} | $ms%.2f | $v%.0f |" })
      .mkString("\n")

  // ---- shared helpers --------------------------------------------------------

  /** All four embedding methods for a lake, as Embedded lakes. */
  def allEmbeddings(lake: Lake, models: Experiments.LakeModels): Seq[Embedded] =
    Seq(models.starmie, models.sato, models.sherlock, models.singleCol)
      .map(enc => Experiments.embedLake(lake, enc))
}
