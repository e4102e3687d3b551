package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Contrastive, Featurizer, StarmieEncoder, UnionSearcher}
import repro.lake.{Benchmarks, LakeGen}
import scala.util.Random

/** A santosSmall-sized copy of the bench exactness gates (Table 5 / Fig 10):
  * Pruning returns exactly Linear's ranked lists and verifies fewer tables.
  */
class PruningSmokeSpec extends AnyFunSuite {

  test("santosSmall: Pruning equals Linear on 20 queries with ≤ 90% of its verifications") {
    val profile = Benchmarks.santosSmall
    val lake = LakeGen.generate(profile.cfg)
    val feat = new Featurizer()
    val w = Contrastive.trainMultiColumn(lake.tables, feat, Contrastive.TrainConfig(maxSteps = 100))
    val emb = Experiments.embedLake(lake, new StarmieEncoder(feat, w))
    val searcher = new UnionSearcher(emb.lake, Experiments.DefaultTau)
    val queries = new Random(20).shuffle(emb.lake.indices.toIndexedSeq).take(20)
    var linear = 0L; var pruning = 0L
    queries.foreach { qi =>
      val (qid, q) = emb.lake(qi)
      val lin = searcher.queryLinear(q, profile.k)
      val prn = searcher.queryPruning(q, profile.k)
      assert(prn.ranked == lin.ranked, s"query $qid")
      linear += lin.verifications; pruning += prn.verifications
    }
    assert(pruning <= 0.9 * linear, s"Pruning verified $pruning tables, Linear $linear")
  }
}
