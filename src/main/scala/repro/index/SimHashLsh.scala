package repro.index

import repro.core.Linalg
import scala.collection.mutable

/** simHash LSH (Charikar 2002) — the random-hyperplane index used by prior
  * table-search systems (Table Union Search, D3L) and the paper's "LSH"
  * design choice.
  *
  * `nTables` independent hash tables, each keyed by the `bitsPerTable`-bit
  * sign pattern of random Gaussian hyperplanes. P[same bucket] grows with
  * cosine similarity; querying unions the matching buckets and re-ranks the
  * members by exact cosine.
  */
final class SimHashLsh(dim: Int, nTables: Int = 8, bitsPerTable: Int = 12,
                       seed: Long = 7) extends VectorIndex {
  require(bitsPerTable <= 30, "bucket key must fit an Int")

  private val planes: Array[Array[Array[Float]]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(nTables, bitsPerTable)(
      Array.fill(dim)(rnd.nextGaussian().toFloat))
  }
  private val buckets: Array[mutable.HashMap[Int, mutable.ArrayBuffer[Int]]] =
    Array.fill(nTables)(mutable.HashMap.empty)
  private val vecs   = mutable.ArrayBuffer[Array[Float]]()
  private val extIds = mutable.ArrayBuffer[Int]()

  private def key(table: Int, vec: Array[Float]): Int = {
    var k = 0
    var b = 0
    while (b < bitsPerTable) {
      if (Linalg.dot(planes(table)(b), vec) >= 0) k |= (1 << b)
      b += 1
    }
    k
  }

  override def add(id: Int, vec: Array[Float]): Unit = {
    VectorIndex.requireInput(vec, dim, "vector")
    val node = vecs.size
    vecs += vec; extIds += id
    var t = 0
    while (t < nTables) {
      buckets(t).getOrElseUpdate(key(t, vec), mutable.ArrayBuffer[Int]()) += node
      t += 1
    }
  }

  override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] = {
    VectorIndex.requireInput(query, dim, "query")
    val seen = mutable.HashSet[Int]()
    var t = 0
    while (t < nTables) {
      buckets(t).get(key(t, query)).foreach(_.foreach(seen += _))
      t += 1
    }
    seen.iterator
      .map(n => (extIds(n), Linalg.dot(vecs(n), query)))
      .toIndexedSeq
      .sortBy(-_._2)
      .take(k)
  }

  override def size: Int = vecs.size
  /** searches only read the buckets and vectors */
  override def concurrentSearch: Boolean = true
  override def memoryBytes: Long = {
    val bucketEntries = buckets.iterator.map(_.valuesIterator.map(_.size.toLong).sum).sum
    size.toLong * (4L + 4L * dim) +          // vectors
      bucketEntries * 8L +                    // bucket membership
      planes.length.toLong * bitsPerTable * dim * 4L // hyperplanes
  }
}
