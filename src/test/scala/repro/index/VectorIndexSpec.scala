package repro.index

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Linalg
import scala.util.Random

/** The input contract every index shares: added and query vectors have the
  * index dimension and are unit-norm or all-zero.
  */
class VectorIndexSpec extends AnyFunSuite {

  private val d    = 4
  private val zero = new Array[Float](d)
  private val unit = Array(0.6f, 0.8f, 0f, 0f)

  private def checkContract(index: VectorIndex): Unit = {
    index.add(0, zero)
    index.add(1, unit)
    assert(index.search(zero, 2).map(_._1).contains(0))
    assert(index.search(unit, 2).map(_._1).contains(1))
    val wrongDim = Seq(Array(0.6f, 0.8f, 0f), Array(0.6f, 0.8f, 0f, 0f, 0f))
    val notUnit  = Seq(Array(1.2f, 1.6f, 0f, 0f), Array(0.3f, 0.4f, 0f, 0f), Array(Float.NaN, 0f, 0f, 0f))
    (wrongDim ++ notUnit).foreach { v =>
      intercept[IllegalArgumentException](index.add(2, v))
      intercept[IllegalArgumentException](index.search(v, 1))
    }
    assert(index.size == 2)
  }

  test("LinearIndex takes only vectors of its dimension that are unit-norm or zero") {
    checkContract(new LinearIndex(d))
  }

  test("SimHashLsh takes only vectors of its dimension that are unit-norm or zero") {
    checkContract(new SimHashLsh(d))
  }

  test("Hnsw takes only vectors of its dimension that are unit-norm or zero") {
    checkContract(new Hnsw(d))
  }

  /** Whether `res` holds at most `k` distinct ids in non-increasing score
    * order, each scored with `Linalg.dot(query, vec)`'s bits.
    */
  private def answersValid(res: IndexedSeq[(Int, Float)], query: Array[Float], k: Int,
                           vecOf: Map[Int, Array[Float]]): Boolean = {
    val bits = java.lang.Float.floatToIntBits _
    res.size <= k &&
      res.map(_._1).distinct.size == res.size &&
      res.indices.drop(1).forall(i => res(i - 1)._2 >= res(i)._2) &&
      res.forall { case (id, s) => vecOf.get(id).exists(v => bits(s) == bits(Linalg.dot(query, v))) }
  }

  test("every index answers with at most k distinct ids in score order, each scored with dot's bits (property)") {
    val gen = for {
      dim  <- Gen.oneOf(4, 16, 128)
      n    <- Gen.choose(0, 300)
      k    <- Gen.choose(1, 40)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (dim, n, k, seed)
    val prop = Prop.forAllNoShrink(gen) { case (dim, n, k, seed) =>
      val rnd = new Random(seed)
      def unit(): Array[Float] = Linalg.normalize(Array.fill(dim)(rnd.nextGaussian().toFloat))
      // every tenth vector repeats an earlier one and one is zero, so scores tie
      val vecs = (0 until n).foldLeft(Vector.empty[Array[Float]]) { (acc, i) =>
        acc :+ (if (i == 5) new Array[Float](dim)
                else if (i % 10 == 9) acc(rnd.nextInt(i)).clone()
                else unit())
      }
      val ids     = vecs.indices.map(i => 7 * i + 3)
      val vecOf   = ids.zip(vecs).toMap
      val queries = Seq.fill(4)(unit()) ++ vecs.take(2)
      Seq(new LinearIndex(dim), new SimHashLsh(dim), new Hnsw(dim)).forall { index =>
        ids.zip(vecs).foreach { case (id, v) => index.add(id, v) }
        queries.forall(q => answersValid(index.search(q, k), q, k, vecOf))
      }
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(40), prop).passed)
  }
}
