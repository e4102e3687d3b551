package repro.core

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

  /** Column-level index over every column embedding of the lake, remembering
    * which table owns each vector. findCandidates(s, τ) = tables owning a
    * column with sim ≥ τ among the index's top-`probe` answers for s.
    */
  final class ColumnIndex(index: VectorIndex, owner: IndexedSeq[String]) {
    def candidateTables(queryCols: IndexedSeq[Array[Float]], tau: Double,
                        probe: Int): IndexedSeq[String] = {
      val out = mutable.LinkedHashSet[String]()
      queryCols.foreach { q =>
        index.search(q, probe).foreach { case (colId, sim) =>
          if (sim >= tau) out += owner(colId)
        }
      }
      out.toIndexedSeq
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
  * lower bound of §4.1 (edge threshold in the bipartite graph). Table ids
  * must be distinct, and every query asks for `k > 0` tables.
  */
final class UnionSearcher(lake: IndexedSeq[(String, IndexedSeq[Array[Float]])],
                          tau: Double) {
  import Search._

  private val byId: Map[String, IndexedSeq[Array[Float]]] = lake.toMap
  require(byId.size == lake.size,
    s"table ids must be distinct; the lake has ${lake.size} tables but ${byId.size} ids")

  // Deterministic total order on (tableId, score): score descending, id
  // ascending on ties — so Linear and Pruning return identical lists even
  // when many tables score 0.
  private def beats(a: (String, Double), b: (String, Double)): Boolean =
    a._2 > b._2 || (a._2 == b._2 && a._1 < b._1)
  /** min-heap whose head is the weakest entry under `beats` */
  private def newHeap = mutable.PriorityQueue[(String, Double)]()(
    Ordering.by(e => (-e._2, e._1)))

  /** Exact verification U(S,T) — the expensive bipartite-matching call. */
  def verify(qEmb: IndexedSeq[Array[Float]], tableId: String): Double =
    Matching.tableUnionability(qEmb, byId(tableId), tau)

  /** Linear scan: verify every table, keep a k-min-heap. */
  def queryLinear(qEmb: IndexedSeq[Array[Float]], k: Int): Result = {
    require(k > 0, s"k must be positive, got $k")
    val t0 = System.nanoTime()
    val heap = newHeap
    var verifications = 0L
    lake.foreach { case (tid, _) =>
      val u = verify(qEmb, tid)
      verifications += 1
      if (heap.size < k) heap.enqueue((tid, u))
      else if (beats((tid, u), heap.head)) { heap.dequeue(); heap.enqueue((tid, u)) }
    }
    Result(heap.dequeueAll.reverse.toIndexedSeq, verifications, lake.size,
           System.nanoTime() - t0)
  }

  /** Pruning (Algorithm 3 over all tables): cheap LB/UB bounds per table,
    * a kth-largest-LB admission floor, then verification in descending-UB
    * order with early exit once UB can no longer beat the heap minimum.
    * Returns exactly the Linear result (modulo ties) with fewer verifications.
    */
  def queryPruning(qEmb: IndexedSeq[Array[Float]], k: Int,
                   candidateIds: Option[IndexedSeq[String]] = None): Result = {
    require(k > 0, s"k must be positive, got $k")
    val t0 = System.nanoTime()
    val cands = candidateIds.getOrElse(lake.map(_._1))
    val bounds = cands.map { tid =>
      val sim = Matching.simMatrix(qEmb, byId(tid))
      (tid, Bounds.lowerBound(sim, tau), Bounds.upperBound(sim, tau))
    }
    // admission floor: at least k tables have exact score ≥ kth-largest LB
    val lbFloor =
      if (bounds.size >= k) bounds.map(_._2).sorted(Ordering[Double].reverse)(k - 1)
      else Double.NegativeInfinity
    val ordered = bounds.sortBy(-_._3) // descending UB
    val heap = newHeap
    var verifications = 0L
    var stop = false
    ordered.foreach { case (tid, _, ub) =>
      if (!stop) {
        if (heap.size < k) {
          // heap must fill to k regardless of bounds (UB=0 ⇒ exact=0: free)
          val u = if (ub == 0.0) 0.0 else { verifications += 1; verify(qEmb, tid) }
          heap.enqueue((tid, u))
        } else if (ub == 0.0) {
          // no τ-surviving edge ⇒ U(S,T)=0 without verification
          if (beats((tid, 0.0), heap.head)) { heap.dequeue(); heap.enqueue((tid, 0.0)) }
        } else if (ub < heap.head._2) {
          stop = true // UBs only shrink from here — nothing below can enter
        } else if (ub < lbFloor) {
          () // ≥ k tables are guaranteed to score ≥ lbFloor > UB ≥ U(S,T): skip
        } else {
          val u = verify(qEmb, tid); verifications += 1
          if (beats((tid, u), heap.head)) { heap.dequeue(); heap.enqueue((tid, u)) }
        }
      }
    }
    Result(heap.dequeueAll.reverse.toIndexedSeq, verifications, cands.size,
           System.nanoTime() - t0)
  }

  /** Index-backed search: the ColumnIndex proposes candidate tables
    * (approximate — false negatives possible), then the pruning verifier
    * ranks them.
    */
  def queryWithIndex(qEmb: IndexedSeq[Array[Float]], k: Int,
                     index: Search.ColumnIndex, probe: Int = 64): Result = {
    val t0    = System.nanoTime()
    val cands = index.candidateTables(qEmb, tau, probe)
    val res   = queryPruning(qEmb, k, Some(cands))
    res.copy(candidates = cands.size, elapsedNanos = System.nanoTime() - t0)
  }
}
