package repro.index

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
  * Vectors and external ids live in a [[LinearIndex]], which also ranks a
  * probe's members. Planes are held dimension-major: one pass over a vector
  * projects it on all of them; keys and scores have `dot`'s bits. Several
  * threads may search at once (`add` runs alone), but a query's probes stay
  * on its thread ([[repro.core.Search.MinSplitWork]]).
  */
final class SimHashLsh(dim: Int, nTables: Int = 8, bitsPerTable: Int = 12,
                       seed: Long = 7) extends VectorIndex {

  require(bitsPerTable <= 30, "bucket key must fit an Int")

  /** planes(p)(t * bitsPerTable + b): coordinate p of table t's plane b, drawn in (t, b, p) order */
  private val planes: Array[Array[Float]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(nTables * bitsPerTable, dim)(rnd.nextGaussian().toFloat).transpose
  }
  private val buckets: Array[mutable.HashMap[Int, mutable.ArrayBuffer[Int]]] =
    Array.fill(nTables)(mutable.HashMap.empty)
  private val store = new LinearIndex(dim)
  /** the calling thread's probe set; rebuilt after deserialization */
  @transient private lazy val visits: ThreadLocal[Visited] = ThreadLocal.withInitial(() => new Visited)

  /** The key of `x` in each table: bit b is set when the projection on plane
    * b, `dot`'s sum in `dot`'s order, is ≥ 0. Four dimensions per pass over
    * the planes, in a loop of its own so that C2 profiles it for this index.
    */
  private[index] def keys(x: Array[Float]): Array[Int] = {
    val proj = new Array[Float](nTables * bitsPerTable)
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
    val node = store.size
    store.add(id, vec)
    val ks = keys(vec)
    for (t <- 0 until nTables) buckets(t).getOrElseUpdate(ks(t), mutable.ArrayBuffer[Int]()) += node
  }

  override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] = {
    VectorIndex.requireInput(query, dim, "query")
    if (k <= 0) return IndexedSeq.empty
    val ks = keys(query)
    val visited = visits.get
    visited.clear(store.size)
    var t = 0
    while (t < nTables) {
      val bucket = buckets(t).getOrElse(ks(t), null)
      var i = 0
      while (bucket != null && i < bucket.length) {
        visited.add(bucket(i))
        i += 1
      }
      t += 1
    }
    store.rank(query, visited.nodes, visited.count, k)
  }

  override def size: Int = store.size
  override def memoryBytes: Long = {
    val bucketEntries = buckets.iterator.map(_.valuesIterator.map(_.size.toLong).sum).sum
    store.memoryBytes +                       // vectors
      bucketEntries * 8L +                    // bucket membership
      nTables.toLong * bitsPerTable * dim * 4L // hyperplanes
  }
}
