package repro.index

import repro.core.Linalg
import scala.collection.immutable.ArraySeq

/** Approximate (or exact) nearest-neighbour index over L2-normalized vectors
  * under cosine similarity. Ids are dense ints assigned by the caller. Every
  * added and query vector has the index dimension and is unit-norm or
  * all-zero ([[VectorIndex.requireInput]]).
  *
  * `add` must not run at the same time as another `add` or a search.
  * [[concurrentSearch]] decides whether `Search.ColumnIndex` splits a query's
  * probes across threads.
  */
trait VectorIndex extends Serializable {
  /** insert a vector */
  def add(id: Int, vec: Array[Float]): Unit
  /** top-k most similar ids with their cosine similarity, descending */
  def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)]
  def size: Int
  /** approximate in-memory footprint in bytes, for the Table 6 experiment */
  def memoryBytes: Long
  /** true when `Search.ColumnIndex` splits a query's probes across threads,
    * which needs searches that may run from several threads at once on one
    * instance. False, the default, keeps them on the query's thread: a
    * wrapper that does not forward this needs that, and so do probes too
    * cheap to pay for a split.
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
  * choice's candidate generator (i.e. no filtering at all). It is also the
  * vector store of [[Hnsw]] and [[SimHashLsh]], as FAISS's flat index is:
  * they add through it and read its vectors, by reference, and external ids
  * by node (insertion index). [[rank]] orders this index's and LSH's answers.
  */
final class LinearIndex(dim: Int) extends VectorIndex {
  import LinearIndex._

  private var n = 0
  private var vecs = new Array[Array[Float]](InitialCapacity)
  private var extIds = new Array[Int](InitialCapacity)

  /** node i's vector for i < size; the array is replaced when the store grows */
  private[index] def vectors: Array[Array[Float]] = vecs
  private[index] def extId(node: Int): Int = extIds(node)

  override def add(id: Int, vec: Array[Float]): Unit = {
    VectorIndex.requireInput(vec, dim, "vector")
    if (n == vecs.length) { vecs = Array.copyOf(vecs, 2 * n); extIds = Array.copyOf(extIds, 2 * n) }
    vecs(n) = vec; extIds(n) = id
    n += 1
  }

  override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] = {
    VectorIndex.requireInput(query, dim, "query")
    if (k <= 0) IndexedSeq.empty else rank(query, Array.range(0, n), n, k)
  }

  /** The top k of the `count` distinct nodes in `nodes` as (external id,
    * score): scores have `dot`'s bits and rank by `java.lang.Float.compare`
    * descending, exact ties by node, lower first. One sort of packed `Long`s.
    */
  private[index] def rank(query: Array[Float], nodes: Array[Int], count: Int, k: Int): IndexedSeq[(Int, Float)] = {
    val sims = new Array[Float](count)
    val ranked = new Array[Long](count)
    Linalg.dotGather(query, vecs, nodes, 0, count, sims)
    // ascending (~sortable(sim), node) is (sim descending, node ascending)
    for (i <- 0 until count)
      ranked(i) = (~sortable(java.lang.Float.floatToRawIntBits(sims(i))).toLong << 32) | nodes(i)
    java.util.Arrays.sort(ranked)
    ArraySeq.unsafeWrapArray(Array.tabulate(math.min(k, count)) { i =>
      val r = ranked(i)
      (extIds(r.toInt), java.lang.Float.intBitsToFloat(sortable(~(r >> 32).toInt)))
    })
  }

  override def size: Int = n
  override def memoryBytes: Long = size.toLong * (4L + 4L * dim)
  /** searches only read */
  override def concurrentSearch: Boolean = true
}

object LinearIndex {
  private[index] val InitialCapacity = 64

  /** a float's bits as an `Int` in `java.lang.Float.compare`'s order (negative
    * below −0 below +0 below positive); the map is its own inverse
    */
  private def sortable(bits: Int): Int = bits ^ ((bits >> 31) & 0x7fffffff)
}

/** One thread's visited set for a probe or a beam search: `nodes` lists the
  * `count` nodes added since [[clear]], in order; epoch stamps make `clear` O(1).
  */
private[index] final class Visited {
  private var stamps = new Array[Int](0)
  private var epoch = 0
  var nodes = new Array[Int](0)
  var count = 0

  /** empties the set and sizes it for nodes 0 until `size` */
  def clear(size: Int): Unit = {
    if (stamps.length < size) {
      val c = math.max(size, 2 * stamps.length)
      stamps = new Array[Int](c); nodes = new Array[Int](c)
    }
    if (epoch == Int.MaxValue) { java.util.Arrays.fill(stamps, 0); epoch = 0 }
    epoch += 1
    count = 0
  }

  /** adds `node`, unless it is in the set already */
  def add(node: Int): Unit =
    if (stamps(node) != epoch) { stamps(node) = epoch; nodes(count) = node; count += 1 }
}
