package repro.index

import repro.core.Linalg
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** simHash LSH (Charikar 2002) — the random-hyperplane index used by prior
  * table-search systems (Table Union Search, D3L) and the paper's "LSH"
  * design choice.
  *
  * `nTables` independent hash tables, each keyed by the `bitsPerTable`-bit
  * sign pattern of random Gaussian hyperplanes. P[same bucket] grows with
  * cosine similarity; querying unions the matching buckets and re-ranks the
  * members by exact cosine, descending, exact ties by node id (insertion
  * order), lower first.
  *
  * Planes are held dimension-major: one pass over a vector projects it on
  * all of them. A probe stamps its distinct members on an epoch array,
  * scores them with [[Linalg.dotGather]] and ranks them with one sort of
  * packed `Long`s; keys and scores have `dot`'s bits. Buffers are per
  * thread, so several threads may search at once (`add` runs alone), but a
  * query's probes stay on its thread ([[repro.core.Search.MinSplitWork]]).
  */
final class SimHashLsh(dim: Int, nTables: Int = 8, bitsPerTable: Int = 12,
                       seed: Long = 7) extends VectorIndex {
  import SimHashLsh._

  require(bitsPerTable <= 30, "bucket key must fit an Int")

  /** planes(p)(t * bitsPerTable + b): coordinate p of table t's plane b, drawn in (t, b, p) order */
  private val planes: Array[Array[Float]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(nTables * bitsPerTable, dim)(rnd.nextGaussian().toFloat).transpose
  }
  private val buckets: Array[mutable.HashMap[Int, mutable.ArrayBuffer[Int]]] =
    Array.fill(nTables)(mutable.HashMap.empty)
  private var n = 0
  private var vecs = new Array[Array[Float]](64)
  private var extIds = new Array[Int](64)
  /** buffers of the calling thread; rebuilt after deserialization */
  @transient private lazy val scratches: ThreadLocal[Scratch] =
    ThreadLocal.withInitial(() => new Scratch(nTables * bitsPerTable))

  /** The key of `x` in each table: bit b is set when the projection on plane
    * b, `dot`'s sum in `dot`'s order, is ≥ 0. Four dimensions per pass over
    * the planes, in a loop of its own so that C2 profiles it for this index.
    */
  private[index] def keys(x: Array[Float]): Array[Int] = {
    val proj = scratches.get.proj
    java.util.Arrays.fill(proj, 0.0f)
    var p = 0
    while (p + 3 < dim) {
      val t0 = planes(p); val t1 = planes(p + 1); val t2 = planes(p + 2); val t3 = planes(p + 3)
      val x0 = x(p); val x1 = x(p + 1); val x2 = x(p + 2); val x3 = x(p + 3)
      var j = 0
      while (j < proj.length) { proj(j) = (((proj(j) + x0 * t0(j)) + x1 * t1(j)) + x2 * t2(j)) + x3 * t3(j); j += 1 }
      p += 4
    }
    while (p < dim) {
      val t = planes(p); val xp = x(p)
      var j = 0
      while (j < proj.length) { proj(j) += xp * t(j); j += 1 }
      p += 1
    }
    val ks = new Array[Int](nTables)
    var t = 0; var j = 0
    while (t < nTables) {
      var b = 0
      while (b < bitsPerTable) { if (proj(j) >= 0) ks(t) |= 1 << b; b += 1; j += 1 }
      t += 1
    }
    ks
  }

  override def add(id: Int, vec: Array[Float]): Unit = {
    VectorIndex.requireInput(vec, dim, "vector")
    if (n == vecs.length) { vecs = Array.copyOf(vecs, 2 * n); extIds = Array.copyOf(extIds, 2 * n) }
    vecs(n) = vec; extIds(n) = id
    val ks = keys(vec)
    for (t <- 0 until nTables) buckets(t).getOrElseUpdate(ks(t), mutable.ArrayBuffer[Int]()) += n
    n += 1
  }

  override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] = {
    VectorIndex.requireInput(query, dim, "query")
    if (k <= 0) return IndexedSeq.empty
    val ks = keys(query)
    val s = scratches.get
    val epoch = s.nextEpoch(n)
    var count = 0
    var t = 0
    while (t < nTables) {
      val bucket = buckets(t).getOrElse(ks(t), null)
      var i = 0
      while (bucket != null && i < bucket.length) {
        val node = bucket(i)
        if (s.visited(node) != epoch) { s.visited(node) = epoch; s.nodes(count) = node; count += 1 }
        i += 1
      }
      t += 1
    }
    Linalg.dotGather(query, vecs, s.nodes, 0, count, s.sims)
    // ascending (~sortable(sim), node) is (sim descending, node ascending)
    for (i <- 0 until count)
      s.ranked(i) = (~sortable(java.lang.Float.floatToRawIntBits(s.sims(i))).toLong << 32) | s.nodes(i)
    java.util.Arrays.sort(s.ranked, 0, count)
    ArraySeq.unsafeWrapArray(Array.tabulate(math.min(k, count)) { i =>
      val r = s.ranked(i)
      (extIds(r.toInt), java.lang.Float.intBitsToFloat(sortable(~(r >> 32).toInt)))
    })
  }

  override def size: Int = n
  override def memoryBytes: Long = {
    val bucketEntries = buckets.iterator.map(_.valuesIterator.map(_.size.toLong).sum).sum
    size.toLong * (4L + 4L * dim) +          // vectors
      bucketEntries * 8L +                    // bucket membership
      nTables.toLong * bitsPerTable * dim * 4L // hyperplanes
  }
}

object SimHashLsh {
  /** a float's bits as an `Int` in `java.lang.Float.compare`'s order (negative
    * below −0 below +0 below positive); the map is its own inverse
    */
  private def sortable(bits: Int): Int = bits ^ ((bits >> 31) & 0x7fffffff)

  /** One thread's buffers: the projections, the visited stamps and a probe's members. */
  private final class Scratch(planes: Int) {
    val proj = new Array[Float](planes)
    var visited, nodes = new Array[Int](0)
    var sims = new Array[Float](0)
    var ranked = new Array[Long](0)
    private var epoch = 0

    /** a stamp no entry of `visited` holds yet, every buffer sized for `size` nodes */
    def nextEpoch(size: Int): Int = {
      if (visited.length < size) {
        val c = math.max(size, 2 * visited.length)
        visited = new Array[Int](c); nodes = new Array[Int](c); sims = new Array[Float](c); ranked = new Array[Long](c)
      }
      if (epoch == Int.MaxValue) { java.util.Arrays.fill(visited, 0); epoch = 0 }
      epoch += 1
      epoch
    }
  }
}
