package repro.core

/** Minimal dense float linear algebra used by the encoders, the contrastive
  * trainer, and the vector indexes. Everything is plain arrays — no external
  * math dependency is available offline, and the shapes are tiny (embedding
  * dim ≤ 128, feature dim ≤ ~1100).
  */
object Linalg {

  def dot(a: Array[Float], b: Array[Float]): Float = {
    var s = 0.0f; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** out(i * b.length + j) = dot(a(i), b(j)) for every i, j, with the same
    * bits as `dot`. Blocks of 2 rows of `a` × 4 rows of `b` keep 8
    * independent accumulators, each summing a(i)(p) * b(j)(p) for p = 0 until
    * d, the order `dot` uses; the JVM does not reorder float sums, so only
    * the interleaving changes. Leftover rows go through `dot`. The rows of
    * `a` must share one length d.
    */
  def dotBlock(a: Array[Array[Float]], b: Array[Array[Float]], out: Array[Float]): Unit = {
    val m = a.length; val n = b.length
    val d = if (m == 0) 0 else a(0).length
    require(a.forall(_.length == d), "dotBlock needs the rows of `a` to share one length")
    var i = 0
    while (i + 1 < m) {
      val a0 = a(i); val a1 = a(i + 1)
      val r0 = i * n; val r1 = r0 + n
      var j = 0
      while (j + 3 < n) {
        val b0 = b(j); val b1 = b(j + 1); val b2 = b(j + 2); val b3 = b(j + 3)
        var s00 = 0.0f; var s01 = 0.0f; var s02 = 0.0f; var s03 = 0.0f
        var s10 = 0.0f; var s11 = 0.0f; var s12 = 0.0f; var s13 = 0.0f
        var p = 0
        while (p < d) {
          val x0 = a0(p); val x1 = a1(p)
          val y0 = b0(p); val y1 = b1(p); val y2 = b2(p); val y3 = b3(p)
          s00 += x0 * y0; s01 += x0 * y1; s02 += x0 * y2; s03 += x0 * y3
          s10 += x1 * y0; s11 += x1 * y1; s12 += x1 * y2; s13 += x1 * y3
          p += 1
        }
        out(r0 + j) = s00; out(r0 + j + 1) = s01; out(r0 + j + 2) = s02; out(r0 + j + 3) = s03
        out(r1 + j) = s10; out(r1 + j + 1) = s11; out(r1 + j + 2) = s12; out(r1 + j + 3) = s13
        j += 4
      }
      while (j < n) { out(r0 + j) = dot(a0, b(j)); out(r1 + j) = dot(a1, b(j)); j += 1 }
      i += 2
    }
    if (i < m) {
      var j = 0
      while (j < n) { out(i * n + j) = dot(a(i), b(j)); j += 1 }
    }
  }

  def norm(a: Array[Float]): Float = math.sqrt(dot(a, a).toDouble).toFloat

  /** L2-normalize in place; a zero vector is left untouched. Returns `a`. */
  def normalize(a: Array[Float]): Array[Float] = {
    val n = norm(a)
    if (n > 1e-12f) { var i = 0; while (i < a.length) { a(i) /= n; i += 1 } }
    a
  }

  def normalized(a: Array[Float]): Array[Float] = normalize(a.clone())

  /** Cosine similarity; 0 when either vector is zero. */
  def cosine(a: Array[Float], b: Array[Float]): Float = {
    val na = norm(a); val nb = norm(b)
    if (na < 1e-12f || nb < 1e-12f) 0.0f else dot(a, b) / (na * nb)
  }

  def axpy(alpha: Float, x: Array[Float], y: Array[Float]): Unit = {
    var i = 0
    while (i < x.length) { y(i) += alpha * x(i); i += 1 }
  }

  /** y = W x for a row-major matrix W (rows × cols). */
  def matVec(w: Array[Array[Float]], x: Array[Float]): Array[Float] = {
    val out = new Array[Float](w.length)
    var r = 0
    while (r < w.length) { out(r) = dot(w(r), x); r += 1 }
    out
  }

  /** grad += alpha * (g ⊗ x): rank-1 update of a row-major matrix. */
  def outerAdd(grad: Array[Array[Float]], alpha: Float,
               g: Array[Float], x: Array[Float]): Unit = {
    var r = 0
    while (r < g.length) {
      val gr = alpha * g(r)
      if (gr != 0.0f) axpy(gr, x, grad(r))
      r += 1
    }
  }

  def zeros(rows: Int, cols: Int): Array[Array[Float]] =
    Array.fill(rows)(new Array[Float](cols))

  /** Gaussian init scaled by 1/sqrt(cols) — the "pre-trained LM" stand-in. */
  def randomMatrix(rows: Int, cols: Int, seed: Long): Array[Array[Float]] = {
    val rnd   = new scala.util.Random(seed)
    val scale = (1.0 / math.sqrt(cols.toDouble)).toFloat
    Array.fill(rows)(Array.fill(cols)((rnd.nextGaussian() * scale).toFloat))
  }
}
