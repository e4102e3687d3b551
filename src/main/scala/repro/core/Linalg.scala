package repro.core

/** Minimal float linear algebra used by the encoders, the contrastive
  * trainer, and the vector indexes. Everything is plain arrays — no external
  * math dependency is available offline, and the shapes are tiny (embedding
  * dim ≤ 128, feature dim ≤ ~1100). The encoder inputs are sparse (about a
  * quarter of their entries are non-zero), so W·x and the trainer's rank-1
  * update run over each input's non-zero entries, with the dense bits.
  */
object Linalg {

  def dot(a: Array[Float], b: Array[Float]): Float = {
    var s = 0.0f; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** out(i)(j) = dot(a(i), b(j)) for every i and for j = from
    * until `until`, with the same bits as `dot`; the other entries of `out`
    * are left as they are. Blocks of 2 rows of `a` × 4 rows of `b` keep 8
    * independent accumulators, each summing a(i)(p) * b(j)(p) for p = 0 until
    * d, the order `dot` uses; the JVM does not reorder float sums, so only
    * the interleaving changes. Leftover rows go through `dot`. The rows of
    * `a` must share one length d. Calls on disjoint column ranges may write
    * one `out` from several threads.
    */
  def dotBlock(a: Array[Array[Float]], b: Array[Array[Float]], from: Int, until: Int,
               out: Array[Array[Float]]): Unit = {
    val m = a.length; val n = b.length
    val d = if (m == 0) 0 else a(0).length
    require(a.forall(_.length == d), "dotBlock needs the rows of `a` to share one length")
    require(0 <= from && from <= until && until <= n, s"column range [$from, $until) is not within 0 until $n")
    var i = 0
    while (i + 1 < m) {
      val a0 = a(i); val a1 = a(i + 1)
      val o0 = out(i); val o1 = out(i + 1)
      var j = from
      while (j + 3 < until) {
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
        o0(j) = s00; o0(j + 1) = s01; o0(j + 2) = s02; o0(j + 3) = s03
        o1(j) = s10; o1(j + 1) = s11; o1(j + 2) = s12; o1(j + 3) = s13
        j += 4
      }
      while (j < until) { o0(j) = dot(a0, b(j)); o1(j) = dot(a1, b(j)); j += 1 }
      i += 2
    }
    if (i < m) {
      var j = from
      while (j < until) { out(i)(j) = dot(a(i), b(j)); j += 1 }
    }
  }

  /** columns per chunk of [[dotByDim]], from a sweep of 256–4,096 (m = 6, d = 128, AVX-512) */
  private[core] final val ByDimChunk = 1024

  /** out(i)(j) = dot(q(i), t_j) for every i and j = from until `until`, with
    * `dot`'s bits, where t_j(p) = byDim(p)(j) (d rows, dimension-major); the
    * other entries of `out` are left as they are. Each entry starts at +0 and
    * adds q(i)(p) * t_j(p) for p = 0 until d, `dot`'s sum in its order, so
    * lanes across j keep every bit. Per chunk of [[ByDimChunk]] columns: for
    * p, for i, `o(j) += x * t(j)`. Index both arrays by the same `j`: C2 (JDK
    * 17) vectorizes this loop, but not `o(oo + j)` or `t(to + j)`, which made
    * the whole kernel 7–8× slower (m = 6, n = 3,252, d = 128, AVX-512).
    */
  def dotByDim(q: Array[Array[Float]], byDim: Array[Array[Float]], from: Int, until: Int,
               out: Array[Array[Float]]): Unit = {
    val m = q.length; val d = byDim.length
    require(0 <= from && from <= until && byDim.forall(_.length >= until) && (from == until || q.forall(_.length == d)),
      s"dotByDim needs query rows of length $d and a column range [$from, $until) within `byDim`'s columns")
    var c0 = from
    while (c0 < until) {
      val c1 = math.min(c0 + ByDimChunk, until)
      var i = 0
      while (i < m) { java.util.Arrays.fill(out(i), c0, c1, 0.0f); i += 1 }
      var p = 0
      while (p < d) {
        val t = byDim(p)
        i = 0
        while (i < m) {
          val o = out(i); val x = q(i)(p)
          var j = c0
          while (j < c1) { o(j) += x * t(j); j += 1 }
          i += 1
        }
        p += 1
      }
      c0 = c1
    }
  }

  /** out(i) = dot(vecs(nodes(from + i)), q) for i = 0 until count, with the
    * same bits as `dot`. Tiles of 4 gathered rows share each load of q and
    * keep 4 independent accumulators, each summing vecs(node)(p) * q(p) for
    * p = 0 until d, the order `dot` uses; leftover rows go through `dot`.
    * Every gathered row must have q's length d.
    */
  def dotGather(q: Array[Float], vecs: Array[Array[Float]], nodes: Array[Int],
                from: Int, count: Int, out: Array[Float]): Unit = {
    val d = q.length
    var i = 0
    while (i + 3 < count) {
      val v0 = vecs(nodes(from + i)); val v1 = vecs(nodes(from + i + 1))
      val v2 = vecs(nodes(from + i + 2)); val v3 = vecs(nodes(from + i + 3))
      var s0 = 0.0f; var s1 = 0.0f; var s2 = 0.0f; var s3 = 0.0f
      var p = 0
      while (p < d) {
        val x = q(p)
        s0 += v0(p) * x; s1 += v1(p) * x; s2 += v2(p) * x; s3 += v3(p) * x
        p += 1
      }
      out(i) = s0; out(i + 1) = s1; out(i + 2) = s2; out(i + 3) = s3
      i += 4
    }
    while (i < count) { out(i) = dot(vecs(nodes(from + i)), q); i += 1 }
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

  /** The non-zero entries of a vector x: `idx` ascending, `vals(k) = x(idx(k))`.
    * Entries equal to ±0 are left out.
    */
  final class SparseVec(val idx: Array[Int], val vals: Array[Float])

  /** The non-zero entries of `x`, in ascending index order. */
  def sparse(x: Array[Float]): SparseVec = {
    var n = 0; var i = 0
    while (i < x.length) { if (x(i) != 0.0f) n += 1; i += 1 }
    val idx = new Array[Int](n); val vals = new Array[Float](n)
    n = 0; i = 0
    while (i < x.length) {
      if (x(i) != 0.0f) { idx(n) = i; vals(n) = x(i); n += 1 }
      i += 1
    }
    new SparseVec(idx, vals)
  }

  /** y = W x for a row-major matrix W (rows × cols) and the non-zero entries
    * of x. Row r sums w(r)(j) * x(j) over the non-zero j in ascending order,
    * so when W is finite every y(r) has the bits of the dense sum over all
    * j: a skipped term is a ±0 product, and an accumulator that starts at +0
    * never becomes −0, so adding ±0 never changes it. Blocks of 4 rows share
    * each index load and keep 4 independent accumulators.
    */
  def matVecSparse(w: Array[Array[Float]], x: SparseVec): Array[Float] = {
    val out = new Array[Float](w.length)
    val idx = x.idx; val vals = x.vals; val n = idx.length
    var r = 0
    while (r + 3 < w.length) {
      val w0 = w(r); val w1 = w(r + 1); val w2 = w(r + 2); val w3 = w(r + 3)
      var s0 = 0.0f; var s1 = 0.0f; var s2 = 0.0f; var s3 = 0.0f
      var k = 0
      while (k < n) {
        val j = idx(k); val v = vals(k)
        s0 += w0(j) * v; s1 += w1(j) * v; s2 += w2(j) * v; s3 += w3(j) * v
        k += 1
      }
      out(r) = s0; out(r + 1) = s1; out(r + 2) = s2; out(r + 3) = s3
      r += 4
    }
    while (r < w.length) {
      val wr = w(r)
      var s = 0.0f; var k = 0
      while (k < n) { s += wr(idx(k)) * vals(k); k += 1 }
      out(r) = s
      r += 1
    }
    out
  }

  /** The rank-1 update g ⊗ x of a matrix held transposed: gradT(j) += x(j) · g
    * for each non-zero j, allocating gradT(j) (zeros) when it is null. Each
    * entry (r, j) accumulates g(r) * x(j) in call order, as the dense
    * update of the row-major matrix does, so it gets the dense bits for
    * finite g and x: the entries skipped are ±0 terms added to accumulators
    * that start at +0 (see [[matVecSparse]]). Each update is an `axpy` over
    * g, which C2 vectorizes.
    */
  def outerAddSparse(gradT: Array[Array[Float]], g: Array[Float], x: SparseVec): Unit = {
    val idx = x.idx; val vals = x.vals
    var k = 0
    while (k < idx.length) {
      val j = idx(k)
      if (gradT(j) == null) gradT(j) = new Array[Float](g.length)
      axpy(vals(k), g, gradT(j))
      k += 1
    }
  }

  /** True when every entry of `w` is finite, the precondition under which
    * the sparse kernels give the dense bits.
    */
  def isFinite(w: Array[Array[Float]]): Boolean =
    w.forall(_.forall(v => java.lang.Float.isFinite(v)))

  /** `java.util.Random`'s stream without its `AtomicLong`: `next(bits)` runs
    * the documented 48-bit LCG on a plain `long`, seeded by the same
    * scramble, so every draw (nextInt, nextDouble, nextGaussian, shuffles
    * through `scala.util.Random`) equals `new java.util.Random(seed)`'s.
    * For one thread only.
    */
  final class UnsharedRandom(seed: Long) extends java.util.Random(seed) {
    // the super constructor calls setSeed before this initializer runs
    private[this] var state: Long = UnsharedRandom.scramble(seed)

    override def setSeed(seed: Long): Unit = {
      super.setSeed(seed)
      state = UnsharedRandom.scramble(seed)
    }

    override protected def next(bits: Int): Int = {
      state = (state * UnsharedRandom.Multiplier + UnsharedRandom.Addend) & UnsharedRandom.Mask
      (state >>> (48 - bits)).toInt
    }
  }

  object UnsharedRandom {
    private val Multiplier = 0x5DEECE66DL
    private val Addend     = 0xBL
    private val Mask       = (1L << 48) - 1
    private def scramble(seed: Long): Long = (seed ^ Multiplier) & Mask
  }

  /** Gaussian init scaled by 1/sqrt(cols) — the "pre-trained LM" stand-in. */
  def randomMatrix(rows: Int, cols: Int, seed: Long): Array[Array[Float]] = {
    val rnd   = new scala.util.Random(new UnsharedRandom(seed))
    val scale = (1.0 / math.sqrt(cols.toDouble)).toFloat
    Array.fill(rows)(Array.fill(cols)((rnd.nextGaussian() * scale).toFloat))
  }
}
