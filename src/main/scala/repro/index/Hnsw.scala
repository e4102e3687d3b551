package repro.index

import repro.core.Linalg
import scala.collection.immutable.ArraySeq

/** Hierarchical Navigable Small World graph (Malkov & Yashunin, TPAMI 2020)
  * over cosine similarity — the index the paper credits with the 3,000×
  * query-time gain on WDC.
  *
  * Faithful to the published algorithm: exponential level assignment with
  * mL = 1/ln(M); one layer search (SEARCH-LAYER) serves every layer: a beam
  * of width 1 on the layers above the target, of width efConstruction on an
  * insert's own layers and of width efSearch on layer 0 at query.
  * Neighbours are chosen by the diversity heuristic as hnswlib runs it
  * (`getNeighborsByHeuristic2`): a new node links to at most M of its
  * candidates, and a list that grows past M (2M at layer 0) is re-selected,
  * keeping only diverse picks.
  *
  * Data layout follows hnswlib: a [[LinearIndex]] holds the vectors, by
  * reference, and the external ids; each node has one fixed-capacity `Int`
  * link array per layer, count in slot 0, room for the layer's cap plus one
  * overflow slot; beam search runs on an epoch-stamped [[Visited]] set and
  * two primitive (sim, node) heaps. Exactly equal similarities are ordered
  * by node id (insertion order), lower first.
  *
  * Similarities to a node's neighbours are computed together, four at a
  * time ([[Linalg.dotGather]], the bits of `dot`), and then consumed in
  * neighbour order by the unchanged decision logic, so the graph and the
  * answers are those of one `dot` per neighbour.
  *
  * Each thread keeps its own search buffers, reused across its calls, so
  * several threads may search one instance at once ([[concurrentSearch]]).
  * `add` links the graph in place: it must not run at the same time as
  * another `add` or a search.
  */
final class Hnsw(dim: Int, m: Int = 16, efConstruction: Int = 100,
                 efSearch: Int = 64, seed: Long = 42) extends VectorIndex {
  import Hnsw._

  require(m >= 2, s"HNSW needs m >= 2 (level multiplier 1/ln m), got m = $m")

  private val mMax0 = 2 * m
  private val levelMult = 1.0 / math.log(m.toDouble)
  private val rnd = new scala.util.Random(seed)

  private val store = new LinearIndex(dim)
  /** links(node)(layer): slot 0 holds the count, slots 1..count the node ids.
    * A node linked on a layer always has that layer, so lookups need no guard.
    */
  private var links = new Array[Array[Array[Int]]](LinearIndex.InitialCapacity)
  private var entryPoint = -1
  private var maxLayer = -1

  /** search buffers of the calling thread; rebuilt after deserialization */
  @transient private lazy val scratches: ThreadLocal[Scratch] =
    ThreadLocal.withInitial(() => new Scratch(mMax0))

  @inline private def vecs: Array[Array[Float]] = store.vectors
  @inline private def capAt(layer: Int): Int = if (layer == 0) mMax0 else m

  override def size: Int = store.size
  /** each thread searches with its own buffers */
  override def concurrentSearch: Boolean = true

  override def add(id: Int, vec: Array[Float]): Unit = {
    val node = store.size
    store.add(id, vec)
    if (node == links.length) links = Array.copyOf(links, 2 * node)
    val level = math.floor(-math.log(rnd.nextDouble() + 1e-12) * levelMult).toInt
    links(node) = Array.tabulate(level + 1)(l => new Array[Int](capAt(l) + 2))

    if (entryPoint < 0) { entryPoint = node; maxLayer = level; return }

    val s = scratches.get
    var ep = descend(s, vec, level)
    // beam-search insert on each layer ≤ min(level, maxLayer)
    var layer = math.min(level, maxLayer)
    while (layer >= 0) {
      val found = searchLayer(s, vec, ep, efConstruction, layer)
      val bucket = links(node)(layer)
      selectHeuristic(s, s.outNodes, s.outSims, found, m, bucket)
      ep = s.outNodes(0)
      var i = 1
      while (i <= bucket(0)) { linkBack(s, bucket(i), node, layer); i += 1 }
      layer -= 1
    }
    if (level > maxLayer) { maxLayer = level; entryPoint = node }
  }

  override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] = {
    VectorIndex.requireInput(query, dim, "query")
    if (entryPoint < 0 || k <= 0) return IndexedSeq.empty
    val s = scratches.get
    val found = math.min(k, searchLayer(s, query, descend(s, query, 0), math.max(efSearch, k), 0))
    val out = new Array[(Int, Float)](found)
    var i = 0
    while (i < found) { out(i) = (store.extId(s.outNodes(i)), s.outSims(i)); i += 1 }
    ArraySeq.unsafeWrapArray(out)
  }

  /** Adds `node` to `nb`'s list on `layer`; on overflow re-selects the list
    * with the same heuristic, keyed on `nb`, from its members sorted by
    * similarity descending (stable, so ties keep list order).
    */
  private def linkBack(s: Scratch, nb: Int, node: Int, layer: Int): Unit = {
    val back = links(nb)(layer)
    val count = back(0) + 1
    back(count) = node
    back(0) = count
    val cap = capAt(layer)
    if (count > cap) {
      val nodes = s.pruneNodes
      val sims = s.pruneSims
      val gathered = s.gatherSims
      Linalg.dotGather(vecs(nb), vecs, back, 1, count, gathered)
      var i = 0
      while (i < count) {
        val x = back(i + 1)
        val sx = gathered(i)
        var j = i
        while (j > 0 && sims(j - 1) < sx) {
          sims(j) = sims(j - 1); nodes(j) = nodes(j - 1); j -= 1
        }
        sims(j) = sx; nodes(j) = x
        i += 1
      }
      selectHeuristic(s, nodes, sims, count, cap, back)
    }
  }

  /** Neighbour selection heuristic (Malkov & Yashunin, Alg. 4, with no refill
    * of pruned slots, as in hnswlib): fewer than `cap` candidates are all
    * kept; otherwise up to `cap` are picked, each strictly closer to the query
    * point than to every earlier pick — diversity keeps clustered regions
    * navigable. Reads `count` candidates best-first from `nodes`/`sims` and
    * writes the selection, best first, into the link array `dst`.
    */
  private def selectHeuristic(s: Scratch, nodes: Array[Int], sims: Array[Float], count: Int,
                              cap: Int, dst: Array[Int]): Unit = {
    if (count < cap) { System.arraycopy(nodes, 0, dst, 1, count); dst(0) = count; return }
    val tile = s.gatherSims
    var selected = 0
    var i = 0
    while (i < count && selected < cap) {
      val c = nodes(i)
      val simToQ = sims(i)
      var diverse = true
      var j = 1
      while (diverse && j <= selected) {
        val t = math.min(4, selected - j + 1)
        Linalg.dotGather(vecs(c), vecs, dst, j, t, tile)
        var k = 0
        while (diverse && k < t) { diverse = tile(k) < simToQ; k += 1 }
        j += t
      }
      if (diverse) { selected += 1; dst(selected) = c }
      i += 1
    }
    dst(0) = selected
  }

  /** The entry point for `bottom`: from the graph's entry point, a beam of
    * width 1 on each layer above `bottom` (Malkov & Yashunin, Alg. 1 and 5).
    */
  private def descend(s: Scratch, q: Array[Float], bottom: Int): Int = {
    var ep = entryPoint
    var layer = maxLayer
    while (layer > bottom) {
      searchLayer(s, q, ep, 1, layer)
      ep = s.outNodes(0)
      layer -= 1
    }
    ep
  }

  /** Beam search of width `ef` on `layer`. Leaves the candidates best-first
    * in `s.outNodes`/`outSims` and returns how many there are.
    */
  private def searchLayer(s: Scratch, q: Array[Float], ep: Int, ef: Int, layer: Int): Int = {
    val visited = s.visited
    visited.clear(size)
    // candidates: best on top; results: worst on top (bounded by ef)
    val cand = s.cand
    val res = s.res
    val sims = s.gatherSims
    cand.clear(); res.clear()
    visited.add(ep)
    val epSim = Linalg.dot(vecs(ep), q)
    cand.push(epSim, ep); res.push(epSim, ep)
    while (cand.size > 0) {
      val c = cand.topNode
      val cSim = cand.topSim
      cand.pop()
      if (cSim < res.topSim && res.size >= ef) {
        cand.clear() // nothing closer can be found
      } else {
        // the unvisited neighbours, appended to the visited list, are scored together
        val nbs = links(c)(layer)
        val from = visited.count
        var i = 1
        while (i <= nbs(0)) { visited.add(nbs(i)); i += 1 }
        val count = visited.count - from
        Linalg.dotGather(q, vecs, visited.nodes, from, count, sims)
        i = 0
        while (i < count) {
          val sn = sims(i)
          if (res.size < ef || sn > res.topSim) {
            val nb = visited.nodes(from + i)
            cand.push(sn, nb)
            res.push(sn, nb)
            if (res.size > ef) res.pop()
          }
          i += 1
        }
      }
    }
    val found = res.size
    s.ensureOut(found)
    var i = found - 1
    while (i >= 0) {
      s.outNodes(i) = res.topNode; s.outSims(i) = res.topSim; res.pop()
      i -= 1
    }
    found
  }

  /** the node's link lists, layer 0 first: what tests read of the graph */
  private[index] def linksOf(node: Int): IndexedSeq[IndexedSeq[Int]] =
    links(node).toIndexedSeq.map(l => l.toIndexedSeq.slice(1, l(0) + 1))

  override def memoryBytes: Long = {
    var live = 0L
    var node = 0
    while (node < size) { links(node).foreach(live += _(0)); node += 1 }
    store.memoryBytes + live * 4L
  }
}

object Hnsw {
  /** One thread's search buffers for one instance. */
  private final class Scratch(mMax0: Int) {
    val visited = new Visited
    val cand = new PairHeap(worstOnTop = false)
    val res = new PairHeap(worstOnTop = true)
    var outNodes = new Array[Int](0)
    var outSims = new Array[Float](0)
    val pruneNodes = new Array[Int](mMax0 + 1)
    val pruneSims = new Array[Float](mMax0 + 1)
    /** similarities to one link list's members, from `dotGather` */
    val gatherSims = new Array[Float](mMax0 + 1)

    def ensureOut(count: Int): Unit =
      if (outNodes.length < count) {
        outNodes = new Array[Int](count)
        outSims = new Array[Float](count)
      }
  }

  /** Binary heap of (sim, node) pairs on primitive arrays. Pairs are ranked
    * by sim descending, then node ascending; the top is the best pair, or
    * the worst with `worstOnTop`.
    */
  private final class PairHeap(worstOnTop: Boolean) {
    private var sims = new Array[Float](64)
    private var nodes = new Array[Int](64)
    var size = 0

    def topSim: Float = sims(0)
    def topNode: Int = nodes(0)
    def clear(): Unit = size = 0

    /** whether slot `a` belongs above slot `b` */
    @inline private def above(a: Int, b: Int): Boolean = {
      val sa = sims(a); val sb = sims(b)
      if (worstOnTop) sa < sb || (sa == sb && nodes(a) > nodes(b))
      else sa > sb || (sa == sb && nodes(a) < nodes(b))
    }

    @inline private def swap(a: Int, b: Int): Unit = {
      val s = sims(a); sims(a) = sims(b); sims(b) = s
      val x = nodes(a); nodes(a) = nodes(b); nodes(b) = x
    }

    def push(sim: Float, node: Int): Unit = {
      if (size == sims.length) {
        sims = Array.copyOf(sims, 2 * size)
        nodes = Array.copyOf(nodes, 2 * size)
      }
      sims(size) = sim; nodes(size) = node
      var i = size
      size += 1
      while (i > 0 && above(i, (i - 1) >> 1)) {
        swap(i, (i - 1) >> 1)
        i = (i - 1) >> 1
      }
    }

    /** removes the top pair */
    def pop(): Unit = {
      size -= 1
      sims(0) = sims(size); nodes(0) = nodes(size)
      var i = 0
      var done = false
      while (!done) {
        val l = 2 * i + 1
        if (l >= size) done = true
        else {
          val r = l + 1
          val child = if (r < size && above(r, l)) r else l
          if (above(child, i)) { swap(child, i); i = child } else done = true
        }
      }
    }
  }
}
