package repro.core

/** Table unionability (§4.1): U(S,T) is the maximum-weight bipartite
  * matching over column pairs whose cosine similarity is ≥ τ (Figure 7).
  * Exact matching uses the O(n³) Hungarian algorithm with potentials.
  */
object Matching {

  /** Cosine similarity matrix between two embedding lists (|S| × |T|).
    * Embeddings are already L2-normalized, so dot = cosine.
    */
  def simMatrix(s: IndexedSeq[Array[Float]], t: IndexedSeq[Array[Float]]): Array[Array[Double]] = {
    val m = Array.ofDim[Double](s.size, t.size)
    var i = 0
    while (i < s.size) {
      var j = 0
      while (j < t.size) { m(i)(j) = Linalg.dot(s(i), t(j)).toDouble; j += 1 }
      i += 1
    }
    m
  }

  /** U over a similarity matrix: the maximum-weight bipartite matching of
    * its edges of weight ≥ τ. The Hungarian method runs on the negated,
    * τ-thresholded weights, transposed if needed so that rows ≤ cols.
    * τ must be ≥ 0 (NaN is rejected): the method finds a perfect assignment,
    * which is the best matching only while no kept edge is negative.
    */
  def unionability(weights: Array[Array[Double]], tau: Double): Double = {
    require(tau >= 0, s"tau must be >= 0, got $tau")
    val rows = weights.length
    if (rows == 0 || weights(0).length == 0) return 0.0
    val cols = weights(0).length
    def cost(i: Int, j: Int): Double = { val w = weights(i)(j); -(if (w >= tau) w else 0.0) }
    val a =
      if (rows > cols) Array.tabulate(cols, rows)((i, j) => cost(j, i))
      else Array.tabulate(rows, cols)(cost)
    val assign = hungarianMin(a)
    a.indices.iterator.map(i => -a(i)(assign(i))).filter(_ > 0.0).sum
  }

  /** U(S,T): the table unionability score for two embedded tables. */
  def tableUnionability(s: IndexedSeq[Array[Float]], t: IndexedSeq[Array[Float]],
                        tau: Double): Double =
    unionability(simMatrix(s, t), tau)

  /** Classic Hungarian algorithm (potentials form) for an n×m cost matrix
    * with n ≤ m, minimizing total cost of a perfect row assignment.
    * Returns for each row the assigned column.
    */
  private def hungarianMin(a: Array[Array[Double]]): Array[Int] = {
    val n = a.length
    val m = a(0).length
    require(n <= m, "rows must not exceed cols")
    val INF = Double.MaxValue / 4
    val u   = new Array[Double](n + 1)
    val v   = new Array[Double](m + 1)
    val p   = new Array[Int](m + 1) // p(j): row (1-based) matched to col j; 0 = free
    val way = new Array[Int](m + 1)
    var i = 1
    while (i <= n) {
      p(0) = i
      var j0   = 0
      val minv = Array.fill(m + 1)(INF)
      val used = new Array[Boolean](m + 1)
      var done = false
      while (!done) {
        used(j0) = true
        val i0 = p(j0)
        var delta = INF
        var j1 = 0
        var j = 1
        while (j <= m) {
          if (!used(j)) {
            val cur = a(i0 - 1)(j - 1) - u(i0) - v(j)
            if (cur < minv(j)) { minv(j) = cur; way(j) = j0 }
            if (minv(j) < delta) { delta = minv(j); j1 = j }
          }
          j += 1
        }
        j = 0
        while (j <= m) {
          if (used(j)) { u(p(j)) += delta; v(j) -= delta }
          else minv(j) -= delta
          j += 1
        }
        j0 = j1
        if (p(j0) == 0) done = true
      }
      // augment along the path
      while (j0 != 0) {
        val j1 = way(j0)
        p(j0) = p(j1)
        j0 = j1
      }
      i += 1
    }
    val res = Array.fill(n)(-1)
    var j = 1
    while (j <= m) {
      if (p(j) > 0) res(p(j) - 1) = j - 1
      j += 1
    }
    res
  }
}
