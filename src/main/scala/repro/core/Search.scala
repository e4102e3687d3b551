package repro.core

import java.util.concurrent.{ForkJoinTask, RecursiveAction}
import repro.index.VectorIndex
import scala.collection.mutable

/** Online query processing (paper §4 / Algorithm 3): filter-and-verification
  * top-k table union search with four design choices —
  *
  *  - Linear:  verify U(S,T) for every lake table
  *  - Pruning: LB/UB bounds (§4.3) skip verifications that cannot change top-k
  *  - LSH / HNSW: a column-level vector index supplies the candidate tables
  *    (findCandidates), then the pruning verifier ranks them
  */
object Search {

  /** Per-query outcome: ranked (tableId, score) plus cost counters. */
  final case class Result(ranked: IndexedSeq[(String, Double)],
                          verifications: Long,
                          candidates: Int,
                          elapsedNanos: Long)

  /** Work below which a part of a query runs inline on the calling thread;
    * from this much on it is split into one fork/join task per core. A
    * Pruning filter over candidates weighs the query-column × candidate-column
    * pairs it scores; the full-lake filter stays inline at any size (split 4
    * ways, its `dotByDim` pass over 3,252 columns took as long, 266–323 vs
    * 207–270 µs, for about twice the CPU time, 480–660 vs 270–360 µs). A
    * query's probes are weighed by their index's column count instead, a
    * deliberate stand-in: what one probe reads depends on the index (every
    * column for `LinearIndex`, about efSearch × degree nodes for HNSW), and
    * the probes measured below pay reliably only from about 8,000 columns
    * on. simHash LSH probes, a few buckets each, never split: the index does
    * not declare [[VectorIndex.concurrentSearch]].
    *
    * Measured on 4 vCPUs (d = 128, 6 query columns, medians of 1,000
    * interleaved calls with 1 ms of other work between them, so that idle
    * workers park): a `dotBlock` filter split 4 ways pays from about 2,000
    * pairs (150 → 115 µs) and takes half the time or less from 4,096 on (348
    * → 192 µs; 6,144 pairs 498 → 257 µs). HNSW probes pay from 8,192 columns
    * on (9,700 columns 950 → 541 µs); over 3,252 columns they would pay too
    * (791 → 452 µs) but stay inline under the stand-in. simHash LSH probes
    * (about 5 µs each over 3,252 columns, 13 µs over 14,038) pay at no
    * measured size: whole LSH queries over santosLarge(3000)'s 14,038
    * columns took 202–238 µs with the probes split and 133–166 µs inline
    * (two runs; 329–368 µs split with the earlier 15–35 µs probes).
    */
  val MinSplitWork = 4096

  /** most tasks one query part splits into: one per core, the caller's included */
  private val MaxTasks = Runtime.getRuntime.availableProcessors

  /** tasks for a part of the given work: one below [[MinSplitWork]], else one per core */
  private[core] def tasksFor(work: Long): Int = if (work < MinSplitWork) 1 else MaxTasks

  /** Runs body(from, until) over `tasks` ≥ 2 contiguous ranges that cut the
    * units 0 until n at about equal weight; `weight(u)` is the weight of
    * units 0 until u, non-decreasing in u. One range runs on the calling
    * thread and the others as fork/join tasks on the common pool, which is
    * safe from inside the pool too: a worker that joins runs queued tasks
    * itself. Callers run a part of one task by calling its body directly.
    */
  private[core] def forkRanges(n: Int, tasks: Int, weight: Int => Long)(body: (Int, Int) => Unit): Unit = {
    val cut = new Array[Int](tasks + 1)
    val total = weight(n)
    var u = 0
    var p = 1
    while (p < tasks) {
      val target = total * p / tasks
      while (weight(u) < target) u += 1
      cut(p) = u
      p += 1
    }
    cut(tasks) = n
    ForkJoinTask.invokeAll(Array.tabulate[ForkJoinTask[_]](tasks) { p =>
      new RecursiveAction { def compute(): Unit = body(cut(p), cut(p + 1)) }
    }: _*)
  }

  /** Pruning's verification order and admission floor for tables with bounds
    * `lbs`/`ubs` (0 ≤ LB ≤ UB). The order is the stable UB-descending sort of
    * every table: the UB > 0 tables are sorted, then the UB = 0 ones follow in
    * index order. The floor is the kth-largest LB of the UB > 0 tables, or 0.0
    * when there are fewer than k: a UB = 0 table has LB = 0, so this is the
    * kth-largest LB of all tables when there are k, and 0.0 skips nothing.
    */
  private[core] def verificationOrder(lbs: Array[Double], ubs: Array[Double], k: Int): (Array[Int], Double) = {
    val nt = ubs.length
    val order = new Array[Int](nt)
    var live = 0
    for (c <- 0 until nt if ubs(c) > 0.0) { order(live) = c; live += 1 }
    var z = live
    for (c <- 0 until nt if !(ubs(c) > 0.0)) { order(z) = c; z += 1 }
    Bounds.sortDescending(order, new Array[Int](live), live, ubs)
    val floor =
      if (live < k) 0.0
      else { val s = Array.tabulate(live)(o => lbs(order(o))); java.util.Arrays.sort(s); s(live - k) }
    (order, floor)
  }

  /** Column-level index over every column embedding of the lake, remembering
    * which table owns each vector. findCandidates(s, τ) = tables owning a
    * column with sim ≥ τ among the index's top-`probe` answers for s.
    *
    * The probes of one query's columns run side by side when the index
    * declares [[VectorIndex.concurrentSearch]] and holds at least
    * [[MinSplitWork]] columns; the answers are merged in query-column order,
    * which keeps the candidate order. Over any other index they run on the
    * calling thread, one after another.
    */
  final class ColumnIndex(index: VectorIndex, owner: IndexedSeq[String]) {
    def candidateTables(queryCols: IndexedSeq[Array[Float]], tau: Double,
                        probe: Int): IndexedSeq[String] = {
      val m = queryCols.size
      val answers = new Array[IndexedSeq[(Int, Float)]](m)
      val tasks = if (index.concurrentSearch) math.min(m, tasksFor(index.size)) else 1
      if (tasks <= 1) probeRange(queryCols, probe, answers, 0, m)
      else forkRanges(m, tasks, i => i)(probeRange(queryCols, probe, answers, _, _))
      val out = mutable.LinkedHashSet[String]()
      answers.foreach(_.foreach { case (colId, sim) =>
        if (sim >= tau) out += owner(colId)
      })
      out.toIndexedSeq
    }

    /** answers(i) = the top-`probe` answers for query column i, for i = from until `until` */
    private def probeRange(queryCols: IndexedSeq[Array[Float]], probe: Int,
                           answers: Array[IndexedSeq[(Int, Float)]], from: Int, until: Int): Unit = {
      var i = from
      while (i < until) { answers(i) = index.search(queryCols(i), probe); i += 1 }
    }

    def memoryBytes: Long = index.memoryBytes
  }

  def buildColumnIndex(lake: IndexedSeq[(String, IndexedSeq[Array[Float]])],
                       mkIndex: Int => VectorIndex): ColumnIndex = {
    require(lake.exists(_._2.nonEmpty),
      s"buildColumnIndex needs at least one column; the lake has ${lake.size} tables and no columns")
    val dim   = lake.iterator.flatMap(_._2.headOption).next().length
    val index = mkIndex(dim)
    val owner = mutable.ArrayBuffer[String]()
    var id = 0
    lake.foreach { case (tid, cols) =>
      cols.foreach { v =>
        index.add(id, v)
        owner += tid
        id += 1
      }
    }
    new ColumnIndex(index, owner.toIndexedSeq)
  }
}

/** Top-k searcher over a fixed embedded lake. `tau` is the column-similarity
  * lower bound of §4.1 (edge threshold in the bipartite graph); it must be
  * ≥ 0, because the §4.3 bounds and [[Matching.unionability]] assume that no
  * kept edge weight is negative. Any τ > 1 keeps no edge, so every score is 0.
  * Table ids must be distinct and the lake's columns must share one
  * dimension; every query asks for `k > 0` tables, with columns of that
  * dimension. Lake and query columns are unit-norm or all-zero
  * ([[VectorIndex.requireUnitOrZero]]), so that a dot product is their cosine.
  *
  * The searcher holds every lake column by reference in one array, table by
  * table, with `Int` offsets and one id → table-index map. Queries keep all
  * their working buffers in the call, so concurrent queries on one searcher
  * are safe. A Pruning query over candidates splits its filter across the
  * cores (see `queryPruning`), safe from inside the common fork/join pool too.
  */
final class UnionSearcher(lake: IndexedSeq[(String, IndexedSeq[Array[Float]])],
                          tau: Double) {
  import Search._

  require(tau >= 0, s"tau must be >= 0, got $tau")
  private val indexOf: Map[String, Int] = lake.iterator.map(_._1).zipWithIndex.toMap
  require(indexOf.size == lake.size,
    s"table ids must be distinct; the lake has ${lake.size} tables but ${indexOf.size} ids")

  /** every lake column, table by table; table t owns cols(offsets(t) until offsets(t + 1)) */
  private val cols: Array[Array[Float]] = lake.iterator.flatMap(_._2).toArray
  /** the lake columns' one dimension; -1 for a lake without columns */
  private val dim = if (cols.isEmpty) -1 else cols(0).length
  require(cols.forall(_.length == dim),
    s"lake columns must share one dimension; found ${cols.map(_.length).distinct.mkString(", ")}")
  cols.foreach(VectorIndex.requireUnitOrZero(_, "lake column"))
  private val offsets: Array[Int] = lake.iterator.map(_._2.size).scanLeft(0)(_ + _).toArray
  /** the lake dimension-major, byDim(p)(j) = cols(j)(p): the full-lake filter's, built on first use */
  private lazy val byDim: Array[Array[Float]] = {
    val t = Array.ofDim[Float](math.max(dim, 0), cols.length)
    for (j <- cols.indices) { val c = cols(j); var p = 0; while (p < c.length) { t(p)(j) = c(p); p += 1 } }
    t
  }
  private val maxCols = if (lake.isEmpty) 0 else lake.iterator.map(_._2.size).max

  // Deterministic total order on (tableId, score): score descending, id
  // ascending on ties — so Linear and Pruning return identical lists even
  // when many tables score 0.
  private def beats(a: (String, Double), b: (String, Double)): Boolean =
    a._2 > b._2 || (a._2 == b._2 && a._1 < b._1)
  /** min-heap whose head is the weakest entry under `beats` */
  private def newHeap = mutable.PriorityQueue[(String, Double)]()(
    Ordering.by(e => (-e._2, e._1)))

  /** adds `e` to a heap of fewer than k entries, else in place of the head when `e` beats it */
  private def offer(heap: mutable.PriorityQueue[(String, Double)], k: Int, e: (String, Double)): Unit =
    if (heap.size < k) heap.enqueue(e)
    else if (beats(e, heap.head)) { heap.dequeue(); heap.enqueue(e) }

  private def checkColumns(qEmb: IndexedSeq[Array[Float]]): Unit = {
    require(dim < 0 || qEmb.forall(_.length == dim),
      s"query columns must have the lake's dimension $dim; found ${qEmb.map(_.length).distinct.mkString(", ")}")
    qEmb.foreach(VectorIndex.requireUnitOrZero(_, "query column"))
  }

  private def checkQuery(qEmb: IndexedSeq[Array[Float]], k: Int): Unit = {
    require(k > 0, s"k must be positive, got $k")
    checkColumns(qEmb)
  }

  /** Exact verification U(S,T) — the expensive bipartite-matching call. The
    * query columns must have the lake's dimension and be unit-norm or
    * all-zero, and `tableId` must be a lake table.
    */
  def verify(qEmb: IndexedSeq[Array[Float]], tableId: String): Double = {
    checkColumns(qEmb)
    val t = indexOf.getOrElse(tableId, -1)
    require(t >= 0, s"table '$tableId' is not in the lake")
    verifyAt(qEmb, t)
  }

  /** U(S,T) of lake table t from the embeddings, unchecked: Linear's and `verify`'s reference */
  private def verifyAt(qEmb: IndexedSeq[Array[Float]], t: Int): Double =
    Matching.tableUnionability(qEmb, lake(t)._2, tau)

  /** Linear scan: verify every table, keep a k-min-heap. */
  def queryLinear(qEmb: IndexedSeq[Array[Float]], k: Int): Result = {
    checkQuery(qEmb, k)
    val t0 = System.nanoTime()
    val heap = newHeap
    lake.indices.foreach(t => offer(heap, k, (lake(t)._1, verifyAt(qEmb, t))))
    Result(heap.dequeueAll.reverse.toIndexedSeq, lake.size, lake.size, System.nanoTime() - t0)
  }

  /** lake indexes of the candidate tables, in candidate order */
  private def candidateIndexes(candidateIds: Option[IndexedSeq[String]]): Array[Int] =
    candidateIds match {
      case None => Array.range(0, lake.size)
      case Some(ids) =>
        val seen = new Array[Boolean](lake.size)
        ids.iterator.map { id =>
          val t = indexOf.getOrElse(id, -1)
          require(t >= 0, s"candidate table '$id' is not in the lake")
          require(!seen(t), s"candidate table '$id' is listed more than once")
          seen(t) = true
          t
        }.toArray
    }

  /** Pruning (Algorithm 3 over all tables): cheap LB/UB bounds per table,
    * a kth-largest-LB admission floor, then verification in descending-UB
    * order with early exit once UB can no longer beat the heap minimum.
    * Returns exactly the Linear result (modulo ties) with fewer verifications.
    * Candidate ids must be distinct lake tables.
    *
    * The filter computes every query-column × candidate-column similarity,
    * one row per query column, then both bounds of each table from one sort
    * of its τ-surviving edges. Over the full lake, `Linalg.dotByDim` reads the
    * dimension-major copy on the calling thread; over a candidate list,
    * `Linalg.dotBlock` reads the candidates' columns side by side and, from
    * [[Search.MinSplitWork]] similarities on, runs as one fork/join task per
    * core over candidate ranges of about equal column count. A verified table
    * is scored from its m × n slice of the similarities, widened to `Double`:
    * the bits `Matching.simMatrix` would recompute. Both kernels have `dot`'s
    * bits, so the ranked list depends neither on the kernel nor on the split.
    */
  def queryPruning(qEmb: IndexedSeq[Array[Float]], k: Int,
                   candidateIds: Option[IndexedSeq[String]] = None): Result = {
    checkQuery(qEmb, k)
    pruning(qEmb, k, candidateIds)
  }

  /** [[queryPruning]] with the query unchecked: `queryPruning`'s and `queryWithIndex`'s body */
  private def pruning(qEmb: IndexedSeq[Array[Float]], k: Int,
                      candidateIds: Option[IndexedSeq[String]]): Result = {
    val t0 = System.nanoTime()
    val tables = candidateIndexes(candidateIds)
    val nt = tables.length
    // candidate columns side by side; candidate c owns block columns start(c) until start(c + 1)
    val (block, start) =
      if (candidateIds.isEmpty) (cols, offsets)
      else {
        val st = tables.map(t => offsets(t + 1) - offsets(t)).scanLeft(0)(_ + _)
        val bl = new Array[Array[Float]](st(nt))
        tables.indices.foreach(c => System.arraycopy(cols, offsets(tables(c)), bl, st(c), st(c + 1) - st(c)))
        (bl, st)
      }
    val q = qEmb.toArray
    val m = q.length
    val width = block.length
    val sim = Array.ofDim[Float](m, width)
    val lbs = new Array[Double](nt)
    val ubs = new Array[Double](nt)
    // the filter over candidates first until end: their similarities into
    // `sim`, then both bounds of each from one sort of its τ-surviving edges
    def filterRange(first: Int, end: Int): Unit = {
      if (candidateIds.isEmpty) Linalg.dotByDim(q, byDim, start(first), start(end), sim)
      else Linalg.dotBlock(q, block, start(first), start(end), sim)
      val edges = new Bounds.EdgeList(m, maxCols, tau)
      var c = first
      while (c < end) {
        val from = start(c); val n = start(c + 1) - from
        edges.clear()
        var i = 0
        while (i < m) {
          val row = sim(i)
          var j = 0
          while (j < n) { edges.add(i, j, row(from + j).toDouble); j += 1 }
          i += 1
        }
        edges.bound(m, n)
        lbs(c) = edges.lb; ubs(c) = edges.ub
        c += 1
      }
    }
    val tasks = if (candidateIds.isEmpty) 1 else tasksFor(m.toLong * width)
    if (tasks == 1) filterRange(0, nt) else forkRanges(nt, tasks, c => start(c))(filterRange)
    val (order, lbFloor) = verificationOrder(lbs, ubs, k)

    // U(S,T) of candidate c from its slice of the block's similarities
    def verified(c: Int): Double = {
      val from = start(c)
      Matching.unionability(
        Array.tabulate(m, start(c + 1) - from)((i, j) => sim(i)(from + j).toDouble), tau)
    }
    val heap = newHeap
    var verifications = 0L
    var stop = false
    var o = 0
    while (o < nt && !stop) {
      val cand = order(o)
      val tid = lake(tables(cand))._1
      val ub  = ubs(cand)
      if (heap.size < k) {
        // heap must fill to k regardless of bounds (UB=0 ⇒ exact=0: free)
        offer(heap, k, (tid, if (ub == 0.0) 0.0 else { verifications += 1; verified(cand) }))
      } else if (ub == 0.0) {
        // no τ-surviving edge ⇒ U(S,T)=0 without verification
        offer(heap, k, (tid, 0.0))
      } else if (ub < heap.head._2) {
        stop = true // UBs only shrink from here — nothing below can enter
      } else if (ub < lbFloor) {
        () // ≥ k tables are guaranteed to score ≥ lbFloor > UB ≥ U(S,T): skip
      } else {
        verifications += 1
        offer(heap, k, (tid, verified(cand)))
      }
      o += 1
    }
    Result(heap.dequeueAll.reverse.toIndexedSeq, verifications, nt,
           System.nanoTime() - t0)
  }

  /** Index-backed search: the ColumnIndex proposes candidate tables
    * (approximate — false negatives possible), then the pruning verifier
    * ranks them; its candidate count is theirs, one table per distinct id.
    */
  def queryWithIndex(qEmb: IndexedSeq[Array[Float]], k: Int,
                     index: Search.ColumnIndex, probe: Int = 64): Result = {
    checkQuery(qEmb, k)
    val t0 = System.nanoTime()
    pruning(qEmb, k, Some(index.candidateTables(qEmb, tau, probe)))
      .copy(elapsedNanos = System.nanoTime() - t0)
  }
}
