package repro.cluster

import repro.core.{ColumnEncoder, Linalg}
import repro.index.Hnsw
import repro.lake.LakeGen.Lake
import scala.collection.mutable

/** Column clustering case study (§5.5, Tables 9/10): build a similarity
  * graph over all lake columns (edges where cosine ≥ θ), take connected
  * components, and measure purity against the ground-truth *contextual*
  * types — the fine-grained semantics the paper's Table 9 shows the clusters
  * actually carry (names-of-schools vs names-of-grocery-stores, both "name"
  * in the coarse 78-type scheme).
  *
  * Edge proposal uses the HNSW index (top-`probe` neighbours per column)
  * instead of the quadratic all-pairs scan — same graph up to ANN recall,
  * tractable at 10⁵ columns.
  */
object ColumnClustering {

  final case class Result(theta: Double, nClusters: Int, avgSize: Double,
                          purity: Double, clusters: IndexedSeq[IndexedSeq[String]])

  /** key = "tableId#colIdx" */
  def colKey(tid: String, ci: Int): String = s"$tid#$ci"

  final class Graph(keys: IndexedSeq[String],
                    neighbours: IndexedSeq[IndexedSeq[(Int, Float)]]) {

    /** connected components under sim ≥ theta (union-find) */
    def components(theta: Double): IndexedSeq[IndexedSeq[String]] = {
      val parent = Array.tabulate(keys.size)(identity)
      def find(x: Int): Int = {
        var r = x
        while (parent(r) != r) r = parent(r)
        var c = x
        while (parent(c) != r) { val n = parent(c); parent(c) = r; c = n }
        r
      }
      def union(a: Int, b: Int): Unit = {
        val (ra, rb) = (find(a), find(b))
        if (ra != rb) parent(ra) = rb
      }
      neighbours.zipWithIndex.foreach { case (nbs, i) =>
        nbs.foreach { case (j, s) => if (s >= theta) union(i, j) }
      }
      keys.indices.groupBy(find).values.map(_.map(keys).toIndexedSeq).toIndexedSeq
    }
  }

  /** Neighbours proposed per column. It must exceed the size of a type's
    * column cohort, or near-duplicate neighbours crowd out the cross-table
    * edges the graph is meant to find.
    */
  private val Probe = 150

  /** θ grid searched by [[evaluateAtTargetCount]]: 0.50, 0.54, …, 0.98. */
  private val ThetaGrid: Seq[Double] = (50 to 98 by 4).map(_ / 100.0)

  /** Embed all lake columns and precompute the ANN neighbour lists once. */
  def buildGraph(lake: Lake, enc: ColumnEncoder,
                 minTheta: Double = 0.5): (Graph, Map[String, String]) = {
    val keys = mutable.ArrayBuffer[String]()
    val vecs = mutable.ArrayBuffer[Array[Float]]()
    lake.tables.foreach { t =>
      val embs = enc.encodeTable(t)
      embs.zipWithIndex.foreach { case (v, ci) =>
        keys += colKey(t.id, ci)
        vecs += v
      }
    }
    val index = new Hnsw(enc.dim, m = 12, efConstruction = 80)
    vecs.zipWithIndex.foreach { case (v, i) => index.add(i, v) }
    val neighbours = vecs.zipWithIndex.map { case (v, i) =>
      index.search(v, Probe).filter { case (j, s) => j != i && s >= minTheta }
    }
    val labels = lake.colContextualType.map { case ((tid, ci), s) => colKey(tid, ci) -> s }
    (new Graph(keys.toIndexedSeq, neighbours.toIndexedSeq), labels)
  }

  def evaluate(graph: Graph, labels: Map[String, String], theta: Double): Result = {
    val clusters = graph.components(theta)
    val purity   = repro.core.Metrics.purity(clusters, k => labels.getOrElse(k, "?"))
    Result(theta, clusters.size,
           if (clusters.isEmpty) 0 else clusters.map(_.size).sum.toDouble / clusters.size,
           purity, clusters)
  }

  /** Pick θ from a grid so the cluster count lands closest to `target` —
    * the paper's fairness control ("similar numbers of clusters").
    */
  def evaluateAtTargetCount(graph: Graph, labels: Map[String, String],
                            target: Int): Result =
    ThetaGrid.map(evaluate(graph, labels, _)).minBy(r => math.abs(r.nClusters - target))
}
