package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.lake.LakeGen
import repro.lake.LakeGen.LakeConfig

class ClusteringSpec extends AnyFunSuite {

  private val cfg = LakeConfig(name = "cl", nTemplates = 6, derivedPerTemplate = 10,
    arityMin = 3, arityMax = 4, sharedTypesPerTemplate = 1, nSharedSurfaces = 3,
    rowsPerDerived = 15, poolSize = 40, colKeepFraction = 0.9,
    nQueries = 0, noise = 0.02, seed = 33)
  private lazy val lake = LakeGen.generate(cfg)
  private val feat = new Featurizer(FeatConfig(hashDim = 128))
  /** raw column features as a stand-in encoder (no training needed here) */
  private val enc: ColumnEncoder = new ColumnEncoder {
    val name = "raw"; val dim: Int = feat.cfg.colDim
    def encodeTable(t: TableData): IndexedSeq[Array[Float]] =
      t.columns.map(feat.columnFeatures)
  }

  test("buildGraph covers every lake column") {
    val (graph, labels) = ColumnClustering.buildGraph(lake, enc)
    val total = lake.totalColumns
    assert(labels.size == total)
    val res = ColumnClustering.evaluate(graph, labels, theta = 0.99)
    assert(res.clusters.map(_.size).sum == total)
  }

  test("theta=1.01 yields singletons, theta=-1 yields few clusters") {
    val (graph, labels) = ColumnClustering.buildGraph(lake, enc, minTheta = -1.0)
    val hi = ColumnClustering.evaluate(graph, labels, theta = 1.01)
    assert(hi.nClusters == lake.totalColumns)
    val lo = ColumnClustering.evaluate(graph, labels, theta = -1.0)
    assert(lo.nClusters < hi.nClusters)
  }

  test("clusters at a sensible theta are mostly pure") {
    val (graph, labels) = ColumnClustering.buildGraph(lake, enc)
    val res = ColumnClustering.evaluate(graph, labels, theta = 0.75)
    assert(res.purity > 0.6, s"purity ${res.purity}")
  }

  test("purity is monotone-ish: higher theta should not hurt much") {
    val (graph, labels) = ColumnClustering.buildGraph(lake, enc)
    val loose = ColumnClustering.evaluate(graph, labels, theta = 0.55)
    val tight = ColumnClustering.evaluate(graph, labels, theta = 0.9)
    assert(tight.purity >= loose.purity - 0.05)
  }

  test("evaluateAtTargetCount lands near the requested cluster count") {
    val (graph, labels) = ColumnClustering.buildGraph(lake, enc)
    val target = 30
    val res = ColumnClustering.evaluateAtTargetCount(graph, labels, target)
    // the grid search should get within a factor of the target, given the
    // granularity of connected components
    assert(res.nClusters > 5 && res.nClusters < lake.totalColumns)
  }

  test("avgSize × nClusters equals the column total") {
    val (graph, labels) = ColumnClustering.buildGraph(lake, enc)
    val res = ColumnClustering.evaluate(graph, labels, theta = 0.8)
    assert(math.abs(res.avgSize * res.nClusters - lake.totalColumns) < 1e-6)
  }

  test("a lake with no columns gives an empty graph, 0 clusters and purity 0") {
    val empty = lake.copy(tables = IndexedSeq.empty, colContextualType = Map.empty)
    val (graph, labels) = ColumnClustering.buildGraph(empty, enc)
    assert(labels.isEmpty)
    val res = ColumnClustering.evaluate(graph, labels, theta = 0.8)
    assert(res.nClusters == 0 && res.avgSize == 0.0 && res.purity == 0.0)
  }

  test("colKey format") {
    assert(ColumnClustering.colKey("t1", 3) == "t1#3")
  }
}
