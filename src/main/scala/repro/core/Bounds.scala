package repro.core

/** Greedy lower/upper bounds on the table unionability score (paper §4.3).
  *
  * Both bounds scan the τ-surviving edges by weight descending:
  *  - UB allows a node to appear in several edges (relaxed matching) and
  *    stops once all nodes on one side are covered or edges run out — a
  *    superset-dominance argument makes the prefix sum an upper bound.
  *  - LB keeps the one-edge-per-node constraint (greedy maximal matching),
  *    which is feasible, hence a lower bound.
  * The edges are sorted once and both bounds come from that one list, in
  * O(|E| log |E| + m + n), far cheaper than exact matching.
  */
object Bounds {

  /** The τ-surviving edges (i, j, w) of one bipartite graph of at most
    * `maxS` × `maxT` nodes, held in primitive arrays. Reuse it across graphs
    * with `clear`; one instance serves one thread.
    */
  final class EdgeList(maxS: Int, maxT: Int, tau: Double) {
    private val capacity = maxS * maxT
    private val ei  = new Array[Int](capacity)
    private val ej  = new Array[Int](capacity)
    private val ew  = new Array[Double](capacity)
    /** edge positions, in weight-descending order after `bound` */
    private val ord = new Array[Int](capacity)
    private val tmp = new Array[Int](capacity)
    private val usedS = new Array[Boolean](maxS); private val usedT = new Array[Boolean](maxT)
    private val covS  = new Array[Boolean](maxS); private val covT  = new Array[Boolean](maxT)
    private var size = 0
    /** bounds of the current edges, set by `bound` */
    var lb = 0.0
    var ub = 0.0

    def clear(): Unit = size = 0

    /** adds edge (i, j) if `w ≥ tau`; edges are kept in the order added */
    def add(i: Int, j: Int, w: Double): Unit =
      if (w >= tau) { ei(size) = i; ej(size) = j; ew(size) = w; ord(size) = size; size += 1 }

    /** Sets `lb` and `ub` of the current edges, for a graph with `m` nodes on
      * one side and `n` on the other.
      */
    def bound(m: Int, n: Int): Unit = {
      // stable, weight descending: the order `sortBy(-w)` gives
      sortDescending(ord, tmp, size, ew)
      java.util.Arrays.fill(usedS, 0, m, false); java.util.Arrays.fill(covS, 0, m, false)
      java.util.Arrays.fill(usedT, 0, n, false); java.util.Arrays.fill(covT, 0, n, false)
      var cs = 0; var ct = 0; var matched = 0
      val full = math.min(m, n)
      var upper = 0.0; var lower = 0.0
      var ubOpen = true
      var e = 0
      // LB can take no edge once one side is fully matched
      while (e < size && (ubOpen || matched < full)) {
        val x = ord(e); val i = ei(x); val j = ej(x); val w = ew(x)
        if (ubOpen) {
          upper += w
          if (!covS(i)) { covS(i) = true; cs += 1 }
          if (!covT(j)) { covT(j) = true; ct += 1 }
          if (cs == m || ct == n) ubOpen = false
        }
        if (!usedS(i) && !usedT(j)) {
          usedS(i) = true; usedT(j) = true; matched += 1
          lower += w
        }
        e += 1
      }
      lb = lower; ub = upper
    }
  }

  private def cols(sim: Array[Array[Double]]): Int = if (sim.isEmpty) 0 else sim(0).length

  private def bounded(sim: Array[Array[Double]], tau: Double): EdgeList = {
    val es = new EdgeList(sim.length, cols(sim), tau)
    var i = 0
    while (i < sim.length) {
      var j = 0
      while (j < sim(i).length) { es.add(i, j, sim(i)(j)); j += 1 }
      i += 1
    }
    es.bound(sim.length, cols(sim))
    es
  }

  /** UB(S,T): greedy prefix with node reuse, stopping at one-side coverage. */
  def upperBound(sim: Array[Array[Double]], tau: Double): Double = bounded(sim, tau).ub

  /** LB(S,T): greedy conflict-free matching (each node in ≤ 1 edge). */
  def lowerBound(sim: Array[Array[Double]], tau: Double): Double = bounded(sim, tau).lb

  /** Sorts idx(0 until n) stably by key(idx(·)) descending, in the order
    * `sortBy(-key)` gives: `-key` ascending under `java.lang.Double.compare`.
    * `tmp` is a work buffer of length ≥ n. A merge sort over insertion-sorted
    * runs: most inputs are a few dozen entries.
    */
  private[core] def sortDescending(idx: Array[Int], tmp: Array[Int], n: Int,
                                   key: Array[Double]): Unit = {
    def before(x: Int, y: Int): Boolean = java.lang.Double.compare(-key(x), -key(y)) < 0
    def mergeSort(lo: Int, hi: Int): Unit =
      if (hi - lo <= 16) {
        var a = lo + 1
        while (a < hi) {
          val x = idx(a); var b = a - 1
          while (b >= lo && before(x, idx(b))) { idx(b + 1) = idx(b); b -= 1 }
          idx(b + 1) = x
          a += 1
        }
      } else {
        val mid = (lo + hi) >>> 1
        mergeSort(lo, mid); mergeSort(mid, hi)
        if (before(idx(mid), idx(mid - 1))) {
          System.arraycopy(idx, lo, tmp, lo, hi - lo)
          var l = lo; var r = mid; var o = lo
          while (o < hi) {
            // the left run wins ties, which keeps the sort stable
            if (r >= hi || (l < mid && !before(tmp(r), tmp(l)))) { idx(o) = tmp(l); l += 1 }
            else { idx(o) = tmp(r); r += 1 }
            o += 1
          }
        }
      }
    mergeSort(0, n)
  }
}
