package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.D3L
import repro.core._

/** Retrieval-policy tests for the ML case study that need no SparkSession. */
class MlRetrievalSpec extends AnyFunSuite {

  private lazy val ml = DataDiscoveryML.generate(nTasks = 4, rows = 120, seed = 8)

  test("low-cardinality columns are never chosen as join keys") {
    ml.tasks.foreach { task =>
      Seq(D3L.jaccard _, DataDiscoveryML.overlap _).foreach { score =>
        DataDiscoveryML.retrieveByTokenSim(task, ml.lake, score).foreach {
          case (tid, _, tj) =>
            val keyCol = ml.lake.find(_.id == tid).get.columns(tj)
            assert(keyCol.values.distinct.size >= 10,
              s"degenerate join key ${keyCol.name} (${keyCol.values.distinct.size} distinct)")
        }
      }
    }
  }

  test("rating columns are never retrieved (no label leakage)") {
    ml.tasks.foreach { task =>
      DataDiscoveryML.retrieveByTokenSim(task, ml.lake, DataDiscoveryML.overlap)
        .foreach { case (tid, _, tj) =>
          assert(!ml.lake.find(_.id == tid).get.columns(tj).name.contains("rating"))
        }
    }
  }

  test("relevant table's party column has an extra category (Jaccard tie-break)") {
    val task = ml.tasks.head
    val rel  = ml.lake.find(_.id == task.relevantId).get
    val qParty = task.query.columns.find(_.name == "party").get.tokenSet
    val rParty = rel.columns.find(_.name == "party").get.tokenSet
    assert(D3L.jaccard(qParty, rParty) < 1.0)
  }

  test("starmie retrieval with an untrained encoder returns a valid pair") {
    val feat = new Featurizer(FeatConfig(hashDim = 128))
    val enc  = new StarmieEncoder(feat, Linalg.randomMatrix(32, feat.cfg.contextDim, 2))
    val task = ml.tasks.head
    val r = DataDiscoveryML.retrieveStarmie(task, ml.lake, ml.lake.map(enc.encodeTable), enc)
    assert(r.isDefined)
    val (tid, qi, tj) = r.get
    assert(ml.lake.exists(_.id == tid))
    assert(qi != task.targetCol)
    assert(ml.lake.find(_.id == tid).get.columns.indices.contains(tj))
  }

  test("starmie retrieval needs one embedding per lake table") {
    val feat = new Featurizer(FeatConfig(hashDim = 128))
    val enc  = new StarmieEncoder(feat, Linalg.randomMatrix(32, feat.cfg.contextDim, 2))
    intercept[IllegalArgumentException] {
      DataDiscoveryML.retrieveStarmie(ml.tasks.head, ml.lake, ml.lake.tail.map(enc.encodeTable), enc)
    }
  }

  test("hidden factor is deterministic") {
    val a = DataDiscoveryML.generate(nTasks = 1, rows = 50, seed = 3)
    val b = DataDiscoveryML.generate(nTasks = 1, rows = 50, seed = 3)
    assert(a.tasks.head.query == b.tasks.head.query)
    assert(a.lake == b.lake)
  }
}
