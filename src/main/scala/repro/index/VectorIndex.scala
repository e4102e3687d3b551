package repro.index

import repro.core.Linalg

/** Approximate (or exact) nearest-neighbour index over L2-normalized vectors
  * under cosine similarity. Ids are dense ints assigned by the caller. Every
  * added and query vector has the index dimension and is unit-norm or
  * all-zero ([[VectorIndex.requireInput]]).
  *
  * `add` must not run at the same time as another `add` or a search. An
  * index whose searches may also run from several threads at once on one
  * instance says so with [[concurrentSearch]]; `Search.ColumnIndex` probes a
  * query's columns side by side only then.
  */
trait VectorIndex extends Serializable {
  /** insert a vector */
  def add(id: Int, vec: Array[Float]): Unit
  /** top-k most similar ids with their cosine similarity, descending */
  def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)]
  def size: Int
  /** approximate in-memory footprint in bytes, for the Table 6 experiment */
  def memoryBytes: Long
  /** true when searches on one instance may run from several threads at
    * once; false, the default, keeps every search of a query on its calling
    * thread, as a wrapper that does not forward this needs
    */
  def concurrentSearch: Boolean = false
}

object VectorIndex {
  /** largest |‖v‖ − 1| accepted as unit norm, far above the rounding error
    * that float normalization leaves
    */
  private val NormTolerance = 1e-3f

  /** Requires `v` (`what` names it) to be unit-norm, within [[NormTolerance]], or all-zero. */
  def requireUnitOrZero(v: Array[Float], what: String): Unit = {
    val n = Linalg.norm(v)
    require(math.abs(n - 1.0f) <= NormTolerance || v.forall(_ == 0.0f),
      s"$what must be unit-norm or all-zero, its norm is $n")
  }

  /** Requires `v` (`what`: "vector" or "query") to have `dim` entries and to
    * be unit-norm or all-zero. Zero is legal: `Linalg.normalize` leaves it
    * as is, and a column with no tokens hashes to it.
    */
  def requireInput(v: Array[Float], dim: Int, what: String): Unit = {
    require(v.length == dim, s"$what has ${v.length} dimensions, index has $dim")
    requireUnitOrZero(v, what)
  }
}

/** Exact brute-force index — the recall reference and the "Linear" design
  * choice's candidate generator (i.e. no filtering at all).
  */
final class LinearIndex(dim: Int) extends VectorIndex {
  private val ids  = scala.collection.mutable.ArrayBuffer[Int]()
  private val vecs = scala.collection.mutable.ArrayBuffer[Array[Float]]()

  override def add(id: Int, vec: Array[Float]): Unit = {
    VectorIndex.requireInput(vec, dim, "vector"); ids += id; vecs += vec
  }

  override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] = {
    VectorIndex.requireInput(query, dim, "query")
    val scored = new Array[(Int, Float)](ids.size)
    var i = 0
    while (i < ids.size) {
      scored(i) = (ids(i), Linalg.dot(query, vecs(i)))
      i += 1
    }
    scored.sortBy(-_._2).take(k).toIndexedSeq
  }

  override def size: Int = ids.size
  override def memoryBytes: Long = size.toLong * (4L + 4L * dim)
  /** searches only read */
  override def concurrentSearch: Boolean = true
}
