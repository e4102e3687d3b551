package repro.ml

import org.apache.spark.ml.feature.LabeledPoint
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.ml.regression.GBTRegressor
import org.apache.spark.sql.SparkSession
import repro.baselines.D3L
import repro.core._
import scala.util.Random
import scala.util.hashing.MurmurHash3

/** Data discovery for downstream ML (paper §5.4 / Appendix F, Tables 7/11).
  *
  * We synthesize `nTasks` rating-prediction tasks in the spirit of the
  * paper's WDC setup (Figure 11): each query table has a numeric "rating"
  * target driven by a hidden per-entity factor; the lake contains for each
  * task (a) a *relevant* table mapping the entity to a feature correlated
  * with the factor (interest-group money), sharing context columns with the
  * query, and (b) a *trap* table with very high token overlap on a generic
  * column (US states) but no predictive value (the dog-competition table).
  * Retrieval methods: token Jaccard, token Overlap, and Starmie's
  * contextualized-embedding formula; the retrieved table is left-joined
  * (deduplicated on the join key, as in the paper's pandas snippet) and a
  * gradient-boosted-tree regressor (Spark MLlib) is scored by test MSE.
  */
object DataDiscoveryML {

  final case class Task(id: Int, query: TableData, targetCol: Int,
                        relevantId: String, trapId: String)
  final case class MlLake(tasks: IndexedSeq[Task], lake: IndexedSeq[TableData])

  // ---- generation ----------------------------------------------------------

  private def hidden(task: Int, ent: Int): Double = {
    val h = MurmurHash3.stringHash(s"h$task-$ent", 0x9e3779b9)
    (math.abs(h) % 10000) / 10000.0
  }

  def generate(nTasks: Int, rows: Int, seed: Long = 31): MlLake = {
    val rnd   = new Random(seed)
    val lake  = scala.collection.mutable.ArrayBuffer[TableData]()
    val tasks = scala.collection.mutable.ArrayBuffer[Task]()
    val parties = IndexedSeq("republican", "democrat", "independent")
    val offices = IndexedSeq("us house", "us senate", "governor")

    (0 until nTasks).foreach { ti =>
      val nEnts      = 150 + rnd.nextInt(150)
      val statePool  = (0 until 40 + rnd.nextInt(20)).map(i => s"st$i")
      // how much of the rating the hidden factor explains varies per task,
      // giving the per-task spread of Table 11 (some tasks don't improve)
      val signal = 0.3 + rnd.nextDouble() * 0.6
      def ent(i: Int)   = s"ent${ti}x$i"
      def state(i: Int) = statePool(i % statePool.size)

      // query table: state, office, name, party, rating(target)
      val qEnts = (0 until rows).map(_ => rnd.nextInt(nEnts))
      val qCols = IndexedSeq(
        ColumnData("state",  qEnts.map(e => state(e)).toIndexedSeq),
        ColumnData("office", qEnts.map(e => offices(e % offices.size)).toIndexedSeq),
        ColumnData("name",   qEnts.map(ent).toIndexedSeq),
        ColumnData("party",  qEnts.map(e => parties(e % parties.size)).toIndexedSeq),
        ColumnData("rating", qEnts.map { e =>
          val r = signal * hidden(ti, e) +
            0.2 * (e % parties.size).toDouble / parties.size +
            (1.0 - signal - 0.2) * rnd.nextDouble()
          f"${math.max(0.0, math.min(1.0, r))}%.4f"
        }.toIndexedSeq),
      )
      val query = TableData(s"q$ti", qCols)

      // relevant lake table: name, party, money (≈ hidden factor), vote.
      // Its party column has one extra category so its token Jaccard with the
      // query's party column is < 1, while the trap's state column matches the
      // query's state pool exactly — Jaccard's designed failure (Figure 11).
      val rParties = parties :+ "green"
      val rEnts = (0 until rows + 60).map(_ => rnd.nextInt(nEnts + 40))
      val relevant = TableData(s"rel$ti", IndexedSeq(
        ColumnData("name",  rEnts.map(ent).toIndexedSeq),
        ColumnData("party", rEnts.map(e => rParties(e % rParties.size)).toIndexedSeq),
        ColumnData("money_supported", rEnts.map { e =>
          f"${5000.0 * hidden(ti, e) + rnd.nextGaussian() * 100.0}%.0f"
        }.toIndexedSeq),
        ColumnData("vote", rEnts.map(e => if (e % 2 == 0) "yes" else "no").toIndexedSeq),
      ))

      // trap table: huge overlap on the generic state column, no signal
      val breeds = IndexedSeq("chinese cresteds", "retrievers", "terriers", "spaniels")
      val trap = TableData(s"trap$ti", IndexedSeq(
        ColumnData("show",  (0 until rows).map(i => s"kennel club $i").toIndexedSeq),
        ColumnData("state", (0 until rows).map(i => state(i)).toIndexedSeq),
        ColumnData("city",  (0 until rows).map(i => s"city$i").toIndexedSeq),
        ColumnData("breed", (0 until rows).map(i => breeds(i % breeds.size)).toIndexedSeq),
        ColumnData("entry", (0 until rows).map(_ => rnd.nextInt(20).toString).toIndexedSeq),
      ))

      lake += relevant += trap
      tasks += Task(ti, query, targetCol = 4, relevant.id, trap.id)
    }
    // filler tables unrelated to every task
    (0 until nTasks).foreach { i =>
      val rnd2 = new Random(seed + 1000 + i)
      lake += TableData(s"filler$i", IndexedSeq(
        ColumnData("word",  (0 until 100).map(j => s"w${i}x$j").toIndexedSeq),
        ColumnData("count", (0 until 100).map(_ => rnd2.nextInt(1000).toString).toIndexedSeq),
      ))
    }
    MlLake(tasks.toIndexedSeq, lake.toIndexedSeq)
  }

  // ---- retrieval -----------------------------------------------------------

  /** (lakeTableId, queryColIdx, lakeColIdx) of the best join candidate. */
  type Retrieval = Option[(String, Int, Int)]

  private def nonTarget(t: Task): IndexedSeq[Int] =
    t.query.columns.indices.filter(_ != t.targetCol)

  /** The retrieved lake column becomes the left-join key after deduplication
    * (paper Appendix F), so it must be key-like: a 3-value categorical would
    * collapse T to 3 rows and join near-constant features.
    */
  private def keyLike(c: ColumnData): Boolean =
    c.values.distinct.size >= 10 && !c.name.contains("rating")

  def retrieveByTokenSim(task: Task, lake: IndexedSeq[TableData],
                         score: (Set[String], Set[String]) => Double): Retrieval = {
    val cands = for {
      t  <- lake.iterator
      qi <- nonTarget(task).iterator
      tj <- t.columns.indices.iterator
      // exclude rating-like columns from T to avoid label leakage (paper)
      if keyLike(t.columns(tj))
    } yield {
      val s = score(task.query.columns(qi).tokenSet, t.columns(tj).tokenSet)
      (t.id, qi, tj, s)
    }
    val best = cands.maxByOption(_._4)
    best.filter(_._4 > 0).map { case (tid, qi, tj, _) => (tid, qi, tj) }
  }

  def overlap(a: Set[String], b: Set[String]): Double =
    a.intersect(b).size.toDouble

  /** Starmie retrieval (Appendix F): argmax over T of
    * max cos(M(s_i), M(t_j)) + max cos(M(s_target), M(t_j)).
    * The join pair is the best (s_i, t_j) of the winning table.
    * `lakeEmb(i)` is `enc.encodeTable(lake(i))`, computed once per lake.
    */
  def retrieveStarmie(task: Task, lake: IndexedSeq[TableData],
                      lakeEmb: IndexedSeq[IndexedSeq[Array[Float]]],
                      enc: ColumnEncoder): Retrieval = {
    require(lakeEmb.size == lake.size, "one embedding per lake table")
    val qEmb = enc.encodeTable(task.query)
    val tgt  = qEmb(task.targetCol)
    val scored = lake.zip(lakeEmb).map { case (t, tEmb) =>
      val pairs = for {
        qi <- nonTarget(task)
        tj <- t.columns.indices if keyLike(t.columns(tj))
      } yield (qi, tj, Linalg.dot(qEmb(qi), tEmb(tj)).toDouble)
      if (pairs.isEmpty) (t.id, 0, 0, Double.NegativeInfinity)
      else {
        val (qi, tj, best) = pairs.maxBy(_._3)
        val tgtSim = t.columns.indices
          .filter(j => !t.columns(j).name.contains("rating"))
          .map(j => Linalg.dot(tgt, tEmb(j)).toDouble).max
        (t.id, qi, tj, best + tgtSim)
      }
    }
    val best = scored.maxBy(_._4)
    if (best._4 == Double.NegativeInfinity) None
    else Some((best._1, best._2, best._3))
  }

  // ---- join + model --------------------------------------------------------

  /** Left-join the query with the retrieved lake table on the retrieved
    * column pair, first deduplicating T on the join key so the row count of
    * the query is preserved (the paper's pandas recipe).
    */
  def augment(task: Task, lake: IndexedSeq[TableData], r: Retrieval): TableData =
    r match {
      case None => task.query
      case Some((tid, qi, tj)) =>
        val t = lake.find(_.id == tid).get
        val keyToRow = scala.collection.mutable.HashMap[String, Int]()
        t.columns(tj).values.zipWithIndex.foreach { case (v, i) =>
          if (!keyToRow.contains(v)) keyToRow(v) = i // keep-first dedup
        }
        val extraCols = t.columns.indices.filter(_ != tj).map { j =>
          val c = t.columns(j)
          val joined = task.query.columns(qi).values.map { key =>
            keyToRow.get(key).flatMap(c.values.lift).getOrElse("")
          }
          ColumnData(s"joined_${c.name}", joined)
        }
        task.query.copy(columns = task.query.columns ++ extraCols)
    }

  /** Featurize a table for regression, one labelled point per row in row
    * order: numeric columns become doubles, textual columns become
    * (hash-bucket, length) pairs — a fixed text featurizer standing in for
    * Sentence Transformers (DESIGN.md §2).
    */
  def featurize(t: TableData, targetCol: Int): IndexedSeq[LabeledPoint] = {
    val featCols = t.columns.indices.filter(_ != targetCol)
    (0 until t.numRows).map { r =>
      val feats = featCols.flatMap { ci =>
        val v = t.columns(ci).values.lift(r).getOrElse("")
        if (t.columns(ci).isNumeric)
          Seq(if (Tokenizer.isNumeric(v)) v.toDouble else 0.0)
        else
          Seq((math.abs(MurmurHash3.stringHash(v, 7)) % 1000) / 1000.0, v.length.toDouble)
      }
      val label = t.columns(targetCol).values.lift(r)
        .filter(Tokenizer.isNumeric).map(_.toDouble).getOrElse(0.0)
      LabeledPoint(label, Vectors.dense(feats.toArray))
    }
  }

  private val GbtSeed = 5L

  /** Train a GBT regressor on a 4:1 split (every 5th row tests) and return
    * the test MSE. MLlib gets one partition in row order, so that the fit is
    * the same on every host and session (DESIGN.md §5).
    */
  def mse(spark: SparkSession, t: TableData, targetCol: Int): Double = {
    val points = featurize(t, targetCol)
    val (test, train) = points.indices.partition(_ % 5 == 0)
    val model = new GBTRegressor()
      .setMaxIter(12).setMaxDepth(4).setSeed(GbtSeed)
      .fit(spark.createDataFrame(spark.sparkContext.parallelize(train.map(points), 1)))
    test.map(r => math.pow(model.predict(points(r).features) - points(r).label, 2)).sum / test.size
  }

  // ---- end-to-end ----------------------------------------------------------

  final case class TaskResult(taskId: Int, rows: Int, noJoin: Double,
                              jaccardMse: Double, overlapMse: Double,
                              starmieMse: Double)

  def runAll(spark: SparkSession, ml: MlLake, enc: ColumnEncoder): IndexedSeq[TaskResult] = {
    val lakeEmb = ml.lake.map(enc.encodeTable)
    ml.tasks.map { task =>
      val rJac = retrieveByTokenSim(task, ml.lake, D3L.jaccard)
      val rOvl = retrieveByTokenSim(task, ml.lake, overlap)
      val rStar = retrieveStarmie(task, ml.lake, lakeEmb, enc)
      TaskResult(task.id, task.query.numRows,
        mse(spark, task.query, task.targetCol),
        mse(spark, augment(task, ml.lake, rJac), task.targetCol),
        mse(spark, augment(task, ml.lake, rOvl), task.targetCol),
        mse(spark, augment(task, ml.lake, rStar), task.targetCol))
    }
  }

  final case class Summary(avgNoJoin: Double, avgJaccard: Double, avgOverlap: Double,
                           avgStarmie: Double, improvedJaccard: Int, improvedOverlap: Int,
                           improvedStarmie: Int)

  def summarize(rs: Seq[TaskResult]): Summary = {
    def avg(f: TaskResult => Double) = rs.map(f).sum / rs.size
    Summary(avg(_.noJoin), avg(_.jaccardMse), avg(_.overlapMse), avg(_.starmieMse),
      rs.count(r => r.jaccardMse < r.noJoin - 1e-9),
      rs.count(r => r.overlapMse < r.noJoin - 1e-9),
      rs.count(r => r.starmieMse < r.noJoin - 1e-9))
  }
}
