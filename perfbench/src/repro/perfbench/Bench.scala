package repro.perfbench

import java.lang.management.ManagementFactory
import repro.core._
import repro.exp.Experiments
import repro.exp.Experiments.Embedded
import repro.index.{Hnsw, LinearIndex, SimHashLsh, VectorIndex}
import repro.lake.LakeGen
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal

/** One benchmark run: generate the workload's lake, set up (train →
  * embed → build indexes) `setupReps` times, warm up, then a closed loop on
  * one client thread that cycles primary query → LSH query → ingest, in
  * whole passes over the ingest stream, until `seconds` have passed and
  * every operation has `minSamples` samples.
  * Outputs are checked after the loop, outside the timed region.
  *
  * With `traceOn`, every second cycle records spans around the calls into
  * each layer and layer probes run after the loop; the result then holds
  * the per-layer metrics instead of the end-to-end ones.
  */
final class Bench(w: Workload, scale: Scale, seed: Long, seconds: Double,
                  traceOn: Boolean) {
  import Bench._

  val tracer = new Tracer
  private val tau   = Experiments.DefaultTau
  private val probe = 64
  private val k     = w.k

  // ---- inputs (not part of set-up) ---------------------------------------
  private val genStart = System.nanoTime()
  val lake = LakeGen.generate(w.lake)
  val generateS: Double = (System.nanoTime() - genStart) / 1e9
  private val nTables = lake.tables.size
  /** the held-out split is fixed per lake; the seed orders the ingests */
  private val split   = new Random(w.lake.seed).shuffle(lake.tables.indices.toIndexedSeq)
  private val nBase   = if (w.exactPrimary) 0 else nTables * 2 / 3
  /** tables ingested by the loop, in order */
  private val ingestStream: IndexedSeq[Int] = new Random(seed ^ 0x5eedL).shuffle(split.drop(nBase))

  private def wrap(ix: VectorIndex, layer: String): VectorIndex =
    if (traceOn) new TracedIndex(ix, layer, tracer) else ix

  // ---- set-up ------------------------------------------------------------
  final case class Stages(trainS: Double, embedS: Double, lshS: Double, hnswS: Double) {
    def totalS: Double = trainS + embedS + lshS + hnswS
  }

  /** `hnsw` (null on the exact workload) holds the base ⅔ of the tables */
  final class Built(val feat: Featurizer, val enc: StarmieEncoder, val emb: Embedded,
                    val searcher: UnionSearcher, val lsh: VectorIndex,
                    val lshCols: Search.ColumnIndex, val hnsw: VectorIndex)

  private def setUpOnce(): (Built, Stages) = {
    val t0   = System.nanoTime()
    val feat = new Featurizer()
    val wts  = Contrastive.trainMultiColumn(lake.tables, feat,
                 Contrastive.TrainConfig(maxSteps = scale.trainSteps))
    val t1   = System.nanoTime()
    val enc  = new StarmieEncoder(feat, wts)
    val emb  = Experiments.embedLake(lake, enc)
    val t2   = System.nanoTime()
    val searcher = new UnionSearcher(emb.lake, tau)
    var lsh: VectorIndex = null
    val lshCols = Search.buildColumnIndex(emb.lake, d => { lsh = wrap(new SimHashLsh(d), "lsh"); lsh })
    val t3   = System.nanoTime()
    val hnsw =
      if (w.exactPrimary) null
      else {
        val layout = new Layout(emb)
        val ix = newHnsw(layout.dim)
        split.take(nBase).foreach { ti =>
          emb.lake(ti)._2.zipWithIndex.foreach { case (v, c) => ix.add(layout.offsets(ti) + c, v) }
        }
        ix
      }
    val t4 = System.nanoTime()
    (new Built(feat, enc, emb, searcher, lsh, lshCols, hnsw),
     Stages((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, (t4 - t3) / 1e9))
  }

  val stages = ArrayBuffer[Stages]()
  val built: Built = {
    var b: Built = null
    (1 to w.setupReps).foreach { _ =>
      b = null // let the previous set-up be collected before the next one
      val (nb, st) = setUpOnce()
      b = nb
      stages += st
    }
    b
  }

  /** used heap after set-up and an explicit GC, MB */
  val heapMb: Double = {
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)
  }

  private val layout = new Layout(built.emb)
  private val embLake = built.emb.lake

  /** HNSW that receives ingests, restorable to its post-set-up state. The
    * column index over it maps every column id, in lake order, to its table.
    */
  final class Target(initial: VectorIndex, baseIds: Iterable[Int], stream: IndexedSeq[Int]) {
    private val snapshot = serialize(initial)
    var index: VectorIndex = _
    var cols: Search.ColumnIndex = _
    /** column ids currently in the index */
    val ids = ArrayBuffer[Int]()
    private var pos = 0
    var resets = -1
    def reset(): Unit = {
      index = wrap(deserialize(snapshot), "hnsw")
      cols = new Search.ColumnIndex(index, layout.owner)
      ids.clear(); ids ++= baseIds
      pos = 0
      resets += 1
    }
    reset()
    /** next table to ingest; restores the index once the stream is used up */
    def next(): Int = {
      if (pos == stream.size) reset()
      pos += 1
      stream(pos - 1)
    }
  }

  private def baseColumnIds(tables: Iterable[Int]): Iterable[Int] =
    tables.flatMap(ti => layout.offsets(ti) until layout.offsets(ti + 1))

  /** On the exact workload ingests go to an HNSW that starts empty and is
    * never queried; otherwise to the HNSW the primary queries read.
    */
  val target: Target =
    if (w.exactPrimary) new Target(newHnsw(layout.dim), Nil, ingestStream)
    else new Target(built.hnsw, baseColumnIds(split.take(nBase)), ingestStream)

  // ---- the closed loop ---------------------------------------------------
  final class Rec(val table: Int, val traced: Boolean) {
    var nanos = 0L
    var alloc = 0L
    var res: Search.Result = _
    var failed = false
  }

  val queries  = ArrayBuffer[Rec]()
  val lshQs    = ArrayBuffer[Rec]()
  val ingests  = ArrayBuffer[Rec]()
  var loopS    = 0.0
  var gcMs     = 0.0

  private val threadBean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def allocated(): Long = if (traceOn) threadBean.getCurrentThreadAllocatedBytes else 0L

  private def indexQuery(op: String, cols: Search.ColumnIndex, qEmb: IndexedSeq[Array[Float]]): Search.Result =
    tracer.span(op) {
      val cands = tracer.span(s"$op.candidates")(cols.candidateTables(qEmb, tau, probe))
      tracer.span(s"$op.verify")(built.searcher.queryPruning(qEmb, k, Some(cands)))
    }

  private def timed(rec: Rec)(body: => Unit): Unit = {
    val a0 = allocated()
    val t0 = System.nanoTime()
    try body catch { case NonFatal(e) => rec.failed = true; noteFailure(e) }
    rec.nanos = System.nanoTime() - t0
    rec.alloc = allocated() - a0
  }

  private var failureNotes = 0
  private def noteFailure(e: Throwable): Unit = {
    if (failureNotes < 5) System.err.println(s"operation failed: $e")
    failureNotes += 1
  }

  private def primary(rec: Rec): Unit = {
    val qEmb = embLake(rec.table)._2
    rec.res =
      if (w.exactPrimary) tracer.span("query")(built.searcher.queryPruning(qEmb, k))
      else if (!rec.traced) built.searcher.queryWithIndex(qEmb, k, target.cols, probe)
      else indexQuery("query", target.cols, qEmb)
  }

  private def lshQuery(rec: Rec): Unit = {
    val qEmb = embLake(rec.table)._2
    rec.res =
      if (!rec.traced) built.searcher.queryWithIndex(qEmb, k, built.lshCols, probe)
      else indexQuery("lsh_query", built.lshCols, qEmb)
  }

  /** Encode a table and add its columns; returns the fresh embeddings. */
  private def ingest(into: Target, ti: Int): IndexedSeq[Array[Float]] =
    tracer.span("ingest") {
      val embs = tracer.span("encoder.encode_table")(built.enc.encodeTable(lake.tables(ti)))
      var c = 0
      while (c < embs.size) { into.index.add(layout.offsets(ti) + c, embs(c)); c += 1 }
      embs
    }

  /** One cycle; records go to the buffers only when `record`. */
  private def cycle(i: Int, draws: Draws, into: Target, record: Boolean): Unit = {
    val traced = traceOn && record && i % 2 == 1
    tracer.enabled = traced
    tracer.op = i
    val q = new Rec(draws.primary.next(), traced)
    timed(q)(primary(q))
    val l = new Rec(draws.lsh.next(), traced)
    timed(l)(lshQuery(l))
    val g = new Rec(into.next(), traced)
    val ti = g.table
    var fresh: IndexedSeq[Array[Float]] = null
    timed(g) { fresh = ingest(into, ti) }
    tracer.enabled = false
    if (!g.failed) {
      val want = embLake(ti)._2
      g.failed = fresh.size != want.size ||
        fresh.indices.exists(c => !java.util.Arrays.equals(fresh(c), want(c)))
      into.ids ++= (layout.offsets(ti) until layout.offsets(ti) + fresh.size)
    }
    if (record) { queries += q; lshQs += l; ingests += g }
  }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Warm the JIT on every path (ingests go to a scratch index), then run
    * the timed loop.
    */
  def run(): Unit = {
    val scratch = new Target(newHnsw(layout.dim), Nil, lake.tables.indices)
    val warmDraws = new Draws(nTables, seed * 7919L + 3)
    val warmEnd = System.nanoTime() + (scale.warmSeconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < warmEnd) { cycle(i, warmDraws, scratch, record = false); i += 1 }

    val draws = new Draws(nTables, seed * 1000003L + 1)
    val gc0 = gcMillis()
    val t0  = System.nanoTime()
    var elapsed = 0.0
    i = 0
    // whole passes over the ingest stream, so every run ingests into the
    // same sequence of index states whatever the host's speed
    while ((elapsed < seconds || queries.size < scale.minSamples || i % ingestStream.size != 0) &&
           elapsed < scale.maxLoopSeconds) {
      cycle(i, draws, target, record = true)
      i += 1
      elapsed = (System.nanoTime() - t0) / 1e9
    }
    loopS = elapsed
    gcMs = (gcMillis() - gc0).toDouble
    tracer.op = -1
  }

  // ---- output checks (outside the timed region) ---------------------------
  /** exact ranked list per queried table: Linear on the exact workload
    * (which Pruning must equal), Pruning otherwise
    */
  lazy val exact: Array[Search.Result] = {
    val out = new Array[Search.Result](nTables)
    val distinct = (queries.iterator ++ lshQs.iterator).map(_.table).toArray.distinct
    java.util.stream.IntStream.range(0, distinct.length).parallel().forEach { (i: Int) =>
      val qEmb = embLake(distinct(i))._2
      out(distinct(i)) =
        if (w.exactPrimary) built.searcher.queryLinear(qEmb, k)
        else built.searcher.queryPruning(qEmb, k)
    }
    out
  }

  private val lakeIds = embLake.iterator.map(_._1).toSet

  /** approximate answer: distinct lake tables, descending score, each score
    * equal to a fresh verification
    */
  private def validApprox(rec: Rec): Boolean = {
    val r    = rec.res.ranked
    val qEmb = embLake(rec.table)._2
    r.size <= k && r.map(_._1).distinct.size == r.size &&
      r.forall(e => lakeIds.contains(e._1)) &&
      r.indices.drop(1).forall(i => r(i - 1)._2 >= r(i)._2) &&
      r.forall { case (tid, s) => built.searcher.verify(qEmb, tid) == s }
  }

  def check(): Unit = {
    val checkOne = (rec: Rec, exactMode: Boolean) =>
      if (!rec.failed) {
        val ok =
          try { if (exactMode) rec.res.ranked == exact(rec.table).ranked else validApprox(rec) }
          catch { case NonFatal(e) => noteFailure(e); false }
        if (!ok) {
          rec.failed = true
          noteFailure(new AssertionError(s"wrong answer for table ${embLake(rec.table)._1}"))
        }
      }
    queries.foreach(checkOne(_, w.exactPrimary))
    lshQs.foreach(checkOne(_, false))
  }

  def attempted: Int = queries.size + lshQs.size + ingests.size
  def failed: Int = (queries.iterator ++ lshQs.iterator ++ ingests.iterator).count(_.failed)

  // ---- end-to-end metrics ------------------------------------------------
  private def okRes(recs: Seq[Rec]): Seq[Rec] = recs.filter(r => !r.failed && r.res != null)

  private def recallAtK(recs: Seq[Rec]): Double = mean(okRes(recs).map { r =>
    val want = exact(r.table).ranked.map(_._1).toSet
    if (want.isEmpty) 1.0 else r.res.ranked.count(e => want(e._1)).toDouble / want.size
  })

  private lazy val groundTruth: Map[Int, Set[String]] =
    queries.iterator.map(_.table).distinct
      .map((t: Int) => t -> lake.groundTruth(lake.tables(t).id)).toMap

  def endToEnd: Seq[(String, Double)] = {
    val qMs = queries.map(_.nanos / 1e6).toArray
    val lMs = lshQs.map(_.nanos / 1e6).toArray
    val iMs = ingests.map(_.nanos / 1e6).toArray
    Seq(
      "setup_s"             -> median(stages.map(_.totalS).toArray),
      "query_p50_ms"        -> quantile(qMs, 0.50),
      "query_p95_ms"        -> quantile(qMs, 0.95),
      "queries_per_s"       -> qMs.length / (qMs.sum / 1e3),
      "lsh_query_p50_ms"    -> quantile(lMs, 0.50),
      "lsh_query_p95_ms"    -> quantile(lMs, 0.95),
      "ingest_p50_ms"       -> quantile(iMs, 0.50),
      "ingest_p95_ms"       -> quantile(iMs, 0.95),
      "ingest_tables_per_s" -> iMs.length / (iMs.sum / 1e3),
      "map_at_k"            -> mean(okRes(queries.toSeq).map(r =>
                                 Metrics.apAtK(r.res.ranked.map(_._1), groundTruth(r.table), k))),
      "recall_at_k"         -> recallAtK(queries.toSeq),
      "lsh_recall_at_k"     -> recallAtK(lshQs.toSeq),
      "heap_mb"             -> heapMb,
    )
  }

  /** digest of the first 200 primary ranked lists (deterministic per seed) */
  def rankedDigest: String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    queries.iterator.take(200).foreach { r =>
      val line = new StringBuilder(embLake(r.table)._1)
      if (r.res != null) r.res.ranked.foreach { case (tid, s) =>
        line.append(' ').append(tid).append('=').append(java.lang.Double.doubleToLongBits(s).toHexString)
      }
      md.update(line.append('\n').toString.getBytes("UTF-8"))
    }
    md.digest().map(b => f"$b%02x").mkString
  }

  // ---- per-layer metrics (traced run) -------------------------------------
  private def spanMedian(name: String, unit: Double): Double =
    median(tracer.durations(name).map(_ / unit))

  /** Time `body` under a span named `name` (probes outside the loop). */
  private def probeSpan[A](name: String)(body: => A): A = {
    tracer.enabled = true
    try tracer.span(name)(body) finally tracer.enabled = false
  }

  /** top-`probe` overlap of `index` with an exact LinearIndex holding `ids`,
    * over the columns of `queryTables`
    */
  private def recallAtProbe(index: VectorIndex, layer: String, ids: Iterable[Int],
                            queryTables: Seq[Int]): Double = {
    val ref = new LinearIndex(layout.dim)
    ids.foreach(id => ref.add(id, layout.vec(id)))
    mean(queryTables.flatMap(t => embLake(t)._2).map { v =>
      val want = ref.search(v, probe).map(_._1).toSet
      val got  = probeSpan(s"$layer.search")(index.search(v, probe))
      got.count(e => want(e._1)).toDouble / want.size
    })
  }

  def perLayer: Seq[(String, Double)] = {
    val probeTables = queries.iterator.map(_.table).toSeq.distinct.take(scale.probeQueries)
    val rnd = new Random(seed + 99)

    // featurizer: one pass of tableInputs over a table sample
    val sample = split.take(math.min(200, nTables))
    sample.foreach(ti => probeSpan("featurizer.table_inputs")(built.feat.tableInputs(lake.tables(ti))))
    // contrastive: featurization of one training batch (8 tables + 8 views)
    val dropCol = Augment.byName("drop_col")
    (0 until 10).foreach { _ =>
      val batch = IndexedSeq.fill(Contrastive.TrainConfig().batchTables)(lake.tables(rnd.nextInt(nTables)))
      val views = batch.map(t => dropCol(t, rnd).table)
      probeSpan("contrastive.featurize_batch")((batch ++ views).foreach(built.feat.tableInputs))
    }
    // matching and bounds: every lake table against a few queries; the
    // LB/UB filter over the whole lake is also timed as one block per query
    val filterMs = probeTables.map { qt =>
      val qEmb = embLake(qt)._2
      embLake.foreach { case (_, tEmb) =>
        val sim = probeSpan("matching.sim_matrix")(Matching.simMatrix(qEmb, tEmb))
        probeSpan("bounds.lb_ub")((Bounds.lowerBound(sim, tau), Bounds.upperBound(sim, tau)))
        probeSpan("matching.verify")(Matching.tableUnionability(qEmb, tEmb, tau))
      }
      val t0 = System.nanoTime()
      embLake.foreach { case (_, tEmb) =>
        val sim = Matching.simMatrix(qEmb, tEmb)
        (Bounds.lowerBound(sim, tau), Bounds.upperBound(sim, tau))
      }
      (System.nanoTime() - t0) / 1e6
    }
    // HNSW: the queried index, or (exact workload) one built over the lake
    val (hnsw, hnswIds, hnswBuildS) =
      if (!w.exactPrimary)
        (unwrap(target.index), target.ids.toSeq, median(stages.map(_.hnswS).toArray))
      else {
        var ix: VectorIndex = null
        val t0 = System.nanoTime()
        Search.buildColumnIndex(embLake, d => { ix = newHnsw(d); ix })
        (ix, layout.allIds, (System.nanoTime() - t0) / 1e9)
      }
    val hnswRecall = recallAtProbe(hnsw, "hnsw", hnswIds, probeTables)
    val lshRecall  = recallAtProbe(unwrap(built.lsh), "lsh", layout.allIds, probeTables)

    val qRes   = okRes(queries.toSeq).map(_.res)
    val sumVer = qRes.map(_.verifications).sum
    val trainS = median(stages.map(_.trainS).toArray)
    val stepMs = trainS * 1e3 / scale.trainSteps
    val traced = queries.filter(_.traced).map(_.nanos / 1e6).toArray
    val plain  = queries.filterNot(_.traced).map(_.nanos / 1e6).toArray
    Seq(
      "contrastive.train_s"            -> trainS,
      "contrastive.step_ms"            -> stepMs,
      "contrastive.featurize_share"    -> spanMedian("contrastive.featurize_batch", 1e6) / stepMs,
      "featurizer.table_inputs_us"     -> spanMedian("featurizer.table_inputs", 1e3),
      "encoder.encode_table_us"        -> spanMedian("encoder.encode_table", 1e3),
      "encoder.embed_lake_s"           -> median(stages.map(_.embedS).toArray),
      "matching.sim_matrix_us"         -> spanMedian("matching.sim_matrix", 1e3),
      "bounds.lb_ub_us"                -> spanMedian("bounds.lb_ub", 1e3),
      "matching.verify_us"             -> spanMedian("matching.verify", 1e3),
      "search.candidates_per_query"    -> mean(qRes.map(_.candidates.toDouble)),
      "search.verifications_per_query" -> mean(qRes.map(_.verifications.toDouble)),
      "search.useful_verify_ratio"     -> qRes.map(r => math.min(k, r.ranked.size)).sum.toDouble /
                                            math.max(1L, sumVer),
      "search.candidate_gen_ms"        -> (if (w.exactPrimary) median(filterMs.toArray)
                                           else spanMedian("query.candidates", 1e6)),
      "hnsw.build_s"                   -> hnswBuildS,
      "hnsw.add_us"                    -> spanMedian("hnsw.add", 1e3),
      "hnsw.search_us"                 -> spanMedian("hnsw.search", 1e3),
      "hnsw.recall_at_probe"           -> hnswRecall,
      "hnsw.memory_bytes"              -> hnsw.memoryBytes.toDouble,
      "lsh.build_s"                    -> median(stages.map(_.lshS).toArray),
      "lsh.search_us"                  -> spanMedian("lsh.search", 1e3),
      "lsh.recall_at_probe"            -> lshRecall,
      "lsh.memory_bytes"               -> built.lsh.memoryBytes.toDouble,
      "jvm.alloc_bytes_per_query"      -> mean(queries.map(_.alloc.toDouble).toSeq),
      "jvm.alloc_bytes_per_ingest"     -> mean(ingests.map(_.alloc.toDouble).toSeq),
      "jvm.gc_ms"                      -> gcMs,
      "trace.query_p50_ms"             -> quantile(traced, 0.5),
      "trace.overhead_ms"              -> (quantile(traced, 0.5) - quantile(plain, 0.5)),
    )
  }
}

object Bench {
  /** Query tables for the primary and the LSH queries: each stream walks
    * seeded permutations of all lake tables, so every table is drawn once
    * before any is drawn twice.
    */
  final class Draws(nTables: Int, seed: Long) {
    final class Stream(rng: Random) {
      private var perm = Array.emptyIntArray
      private var pos  = 0
      def next(): Int = {
        if (pos == perm.length) { perm = rng.shuffle((0 until nTables).toVector).toArray; pos = 0 }
        pos += 1
        perm(pos - 1)
      }
    }
    val primary = new Stream(new Random(seed))
    val lsh     = new Stream(new Random(seed + 1))
  }

  private def newHnsw(dim: Int): VectorIndex = new Hnsw(dim, seed = 7)

  def unwrap(ix: VectorIndex): VectorIndex = ix match {
    case t: TracedIndex => t.inner
    case other          => other
  }

  def serialize(ix: VectorIndex): Array[Byte] = {
    val bytes = new java.io.ByteArrayOutputStream()
    val out   = new java.io.ObjectOutputStream(bytes)
    out.writeObject(ix); out.close()
    bytes.toByteArray
  }

  def deserialize(b: Array[Byte]): VectorIndex = {
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(b))
    try in.readObject().asInstanceOf[VectorIndex] finally in.close()
  }

  /** Column ids in lake order: table `i` owns ids offsets(i) until offsets(i+1). */
  final class Layout(emb: Embedded) {
    val offsets: Array[Int] = emb.lake.scanLeft(0)(_ + _._2.size).toArray
    val owner: IndexedSeq[String] = emb.lake.flatMap { case (tid, cols) => cols.map(_ => tid) }
    val dim: Int = emb.lake.iterator.flatMap(_._2.headOption).next().length
    def allIds: Seq[Int] = 0 until offsets.last
    private val tableOf: Array[Int] =
      emb.lake.indices.flatMap(t => Iterator.fill(emb.lake(t)._2.size)(t)).toArray
    def vec(id: Int): Array[Float] = emb.lake(tableOf(id))._2(id - offsets(tableOf(id)))
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  def median(xs: Array[Double]): Double = quantile(xs, 0.5)

  /** nearest-rank quantile; NaN on no samples */
  def quantile(xs: Array[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
    }
}
