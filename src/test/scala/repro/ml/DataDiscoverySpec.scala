package repro.ml

import repro.{Oracle, SparkSpec}
import repro.baselines.D3L
import repro.core._

class DataDiscoverySpec extends SparkSpec {

  private lazy val ml = DataDiscoveryML.generate(nTasks = 3, rows = 120, seed = 2)

  test("generate produces tasks with rating targets and lake tables") {
    assert(ml.tasks.size == 3)
    assert(ml.lake.size == 3 * 2 + 3) // relevant + trap per task, plus fillers
    ml.tasks.foreach { t =>
      assert(t.query.columns(t.targetCol).name == "rating")
      assert(t.query.columns(t.targetCol).isNumeric)
    }
  }

  test("rating values are normalized to [0,1]") {
    ml.tasks.foreach { t =>
      t.query.columns(t.targetCol).values.foreach { v =>
        val d = v.toDouble
        assert(d >= 0.0 && d <= 1.0)
      }
    }
  }

  test("overlap retrieval picks the entity-keyed (relevant) table") {
    val task = ml.tasks.head
    val r = DataDiscoveryML.retrieveByTokenSim(task, ml.lake, DataDiscoveryML.overlap)
    assert(r.isDefined)
    assert(r.get._1 == task.relevantId,
      s"overlap should pick ${task.relevantId}, got ${r.get._1}")
  }

  test("jaccard retrieval is fooled by the full-overlap state column") {
    val fooled = ml.tasks.count { task =>
      DataDiscoveryML.retrieveByTokenSim(task, ml.lake, D3L.jaccard)
        .exists(_._1 == task.trapId)
    }
    // the trap is designed to have near-perfect Jaccard on the state column
    assert(fooled >= 1, s"expected at least one trap hit, got $fooled")
  }

  test("augment preserves the query row count and appends joined columns") {
    val task = ml.tasks.head
    val r = DataDiscoveryML.retrieveByTokenSim(task, ml.lake, DataDiscoveryML.overlap)
    val aug = DataDiscoveryML.augment(task, ml.lake, r)
    assert(aug.numRows == task.query.numRows)
    assert(aug.numCols > task.query.numCols)
    assert(aug.columns.exists(_.name.startsWith("joined_")))
  }

  test("augment with None retrieval is identity") {
    val task = ml.tasks.head
    assert(DataDiscoveryML.augment(task, ml.lake, None) == task.query)
  }

  test("augment implements the dedup-then-left-join semantics (oracle)") {
    import org.apache.spark.sql.functions._
    val task = ml.tasks.head
    val r @ Some((tid, qi, tj)) =
      DataDiscoveryML.retrieveByTokenSim(task, ml.lake, DataDiscoveryML.overlap)
    val aug = DataDiscoveryML.augment(task, ml.lake, r)
    val lakeT = ml.lake.find(_.id == tid).get

    // spark-side: first joined column values keyed by query row
    val joinedColName = aug.columns.map(_.name).find(_.startsWith("joined_")).get
    val joinedIdx = aug.columns.indexWhere(_.name == joinedColName)
    val sparkDf = {
      import spark.implicits._
      aug.columns(qi).values.zip(aug.columns(joinedIdx).values).zipWithIndex
        .map { case ((k, v), i) => (i, k, v) }
        .toDF("row_id", "key", "joined")
    }
    // duckdb-side: left join query keys against first-occurrence dedup of T
    val qDf = {
      import spark.implicits._
      task.query.columns(qi).values.zipWithIndex.map { case (k, i) => (i, k) }
        .toDF("row_id", "key")
    }
    val tj0 = lakeT.columns(tj).values
    val other = lakeT.columns.indexWhere(_.name == joinedColName.stripPrefix("joined_"))
    val tDf = {
      import spark.implicits._
      tj0.zip(lakeT.columns(other).values).zipWithIndex
        .map { case ((k, v), i) => (i, k, v) }
        .toDF("pos", "tkey", "tval")
    }
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT q.row_id AS row_id, q.key AS key, COALESCE(d.tval, '') AS joined
        |FROM q LEFT JOIN (
        |  SELECT tkey, tval FROM (
        |    SELECT tkey, tval, ROW_NUMBER() OVER (PARTITION BY tkey ORDER BY CAST(pos AS INT)) AS rn
        |    FROM t) WHERE rn = 1
        |) d ON q.key = d.tkey""".stripMargin,
      "q" -> qDf, "t" -> tDf)
  }

  test("featurize emits one row per table row with a label column") {
    val task = ml.tasks.head
    val points = DataDiscoveryML.featurize(task.query, task.targetCol)
    assert(points.size == task.query.numRows)
    assert(points.map(_.label) == task.query.columns(task.targetCol).values.map(_.toDouble))
    // one feature per numeric column, a (hash bucket, length) pair per text column
    val featCols = task.query.columns.indices.filter(_ != task.targetCol).map(task.query.columns)
    val width = featCols.map(c => if (c.isNumeric) 1 else 2).sum
    assert(points.forall(_.features.size == width))
  }

  test("mse returns the same bits at 64 and 200 shuffle partitions") {
    val task = ml.tasks(1)
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    try {
      val bits = Seq("64", "200").map { n =>
        spark.conf.set(key, n)
        java.lang.Double.doubleToLongBits(DataDiscoveryML.mse(spark, task.query, task.targetCol))
      }
      assert(bits.distinct.size == 1,
        s"MSE ${bits.map(java.lang.Double.longBitsToDouble)} at 64 and 200 partitions")
    } finally spark.conf.set(key, before)
  }

  test("GBT on the augmented table beats NoJoin on a signal-rich task") {
    // pick the task with the strongest hidden-factor signal among the three
    val results = ml.tasks.map { task =>
      val rOvl = DataDiscoveryML.retrieveByTokenSim(task, ml.lake, DataDiscoveryML.overlap)
      val noJoin = DataDiscoveryML.mse(spark, task.query, task.targetCol)
      val joined = DataDiscoveryML.mse(spark,
        DataDiscoveryML.augment(task, ml.lake, rOvl), task.targetCol)
      (noJoin, joined)
    }
    // at least one task must improve materially after the join
    assert(results.exists { case (nj, j) => j < nj },
      s"no task improved: $results")
  }

  test("summarize counts improved tasks") {
    val rs = Seq(
      DataDiscoveryML.TaskResult(0, 10, noJoin = 0.5, jaccardMse = 0.6, overlapMse = 0.4, starmieMse = 0.3),
      DataDiscoveryML.TaskResult(1, 10, noJoin = 0.5, jaccardMse = 0.4, overlapMse = 0.6, starmieMse = 0.4))
    val s = DataDiscoveryML.summarize(rs)
    assert(s.improvedJaccard == 1 && s.improvedOverlap == 1 && s.improvedStarmie == 2)
    assert(math.abs(s.avgNoJoin - 0.5) < 1e-12)
  }
}
