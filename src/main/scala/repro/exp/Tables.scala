package repro.exp

import org.apache.spark.sql.SparkSession
import repro.cluster.ColumnClustering
import repro.core._
import repro.lake.{Benchmarks, LakeGen}
import repro.lake.Benchmarks.Profile
import repro.lake.LakeGen.Lake
import repro.ml.DataDiscoveryML

/** One driver per paper table. Each returns structured rows (asserted by the
  * bench suites) plus a pretty renderer (printed by bench suites and jobs/
  * mains alike), so bench output and jobs/ output share a code path.
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

  final case class T3Result(profile: Profile, lake: Lake,
                            models: Experiments.LakeModels,
                            rows: Seq[Experiments.EvalRow])

  def table3(profile: Profile): T3Result = {
    val (lake, models, rows) = Experiments.effectiveness(profile)
    T3Result(profile, lake, models, rows)
  }

  def renderT3(results: Seq[T3Result]): String = {
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

  def table4(base: Lake, feat: Featurizer): Seq[(Int, Double, Double)] =
    Experiments.negativeClasses(base, feat)

  def renderT4(rows: Seq[(Int, Double, Double)]): String =
    ("| # Negative Classes | MAP@60 | MAP@120 |" :: "|---|---|---|" ::
      rows.toList.map { case (c, m60, m120) => f"| $c | $m60%.3f | $m120%.3f |" })
      .mkString("\n")

  // ---- Tables 5 & 8: design choices × methods -------------------------------

  final case class T58Row(method: String, technique: String, map: Double,
                          p: Double, r: Double, queryMs: Double)

  /** For each named embedding, run the four design choices. */
  def table58(lake: Lake, embeddings: Seq[Experiments.Embedded], k: Int): Seq[T58Row] =
    embeddings.flatMap { emb =>
      Experiments.designChoices(lake, emb, k).map { row =>
        val technique = row.method.split('/').last
        T58Row(emb.method, technique, row.map, row.p, row.r, row.avgQueryMillis)
      }
    }

  def renderT58(rows: Seq[T58Row]): String =
    ("| Method | Technique | MAP@10 | P@10 | R@10 | Query Time (ms) |" ::
     "|---|---|---|---|---|---|" ::
     rows.toList.map(r =>
       f"| ${r.method} | ${r.technique} | ${r.map}%.3f | ${r.p}%.3f | ${r.r}%.3f | ${r.queryMs}%.1f |"))
      .mkString("\n")

  // ---- Table 6: memory overhead ---------------------------------------------

  def table6(lake: Lake, emb: Experiments.Embedded): Seq[Experiments.MemoryRow] =
    Experiments.memoryOverhead(lake, emb)

  def renderT6(lakeMb: Double, rows: Seq[Experiments.MemoryRow]): String =
    (f"Data lake size: $lakeMb%.1f MB" ::
     "| Method | Memory Usage (MB) | Space Overhead |" :: "|---|---|---|" ::
     rows.toList.map(r =>
       f"| ${r.method} | ${r.memBytes / 1e6}%.1f | ${r.overheadPct}%.2f%% |"))
      .mkString("\n")

  // ---- Tables 7 & 11: ML data discovery -------------------------------------

  final case class T7Result(tasks: IndexedSeq[DataDiscoveryML.TaskResult],
                            summary: DataDiscoveryML.Summary)

  def table7(spark: SparkSession, nTasks: Int, rows: Int,
             trainCfg: Contrastive.TrainConfig): T7Result = {
    val ml = DataDiscoveryML.generate(nTasks, rows)
    // train the contextualized encoder on the ML lake (queries included, as
    // WDC query tables are lake members in the paper's case study)
    val feat = new Featurizer()
    val corpus = ml.lake ++ ml.tasks.map(_.query)
    val w = Contrastive.trainMultiColumn(corpus, feat, trainCfg)
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

  def fig10(lake: Lake, emb: Experiments.Embedded, k: Int,
            sizes: Seq[Int], nQueries: Int): Seq[(Int, String, Double, Double)] =
    Experiments.scalability(lake, emb, k, sizes, nQueries)

  def renderFig10(rows: Seq[(Int, String, Double, Double)]): String =
    ("| Lake size (tables) | Technique | Avg query (ms) | Avg verifications |" ::
     "|---|---|---|---|" ::
     rows.toList.map { case (n, mode, ms, v) => f"| $n | $mode | $ms%.2f | $v%.0f |" })
      .mkString("\n")

  // ---- shared helpers --------------------------------------------------------

  /** All four embedding methods for a lake, as Embedded lakes. */
  def allEmbeddings(lake: Lake, models: Experiments.LakeModels): Seq[Experiments.Embedded] =
    Seq(models.starmie, models.sato, models.sherlock, models.singleCol)
      .map(enc => Experiments.embedLake(lake, enc))

  def defaultEffectivenessProfiles: Seq[Profile] = Benchmarks.effectiveness
}
