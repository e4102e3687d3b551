package repro.index

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Linalg
import scala.util.Random

/** The input contract every index shares: added and query vectors have the
  * index dimension and are unit-norm or all-zero.
  */
class VectorIndexSpec extends AnyFunSuite {
  import VectorIndexSpec.{bits, roundTrip, searchedAtOnce}

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

  test("LinearIndex ranks by Float.compare on dot descending, exact ties in insertion order, cut at k (property)") {
    val gen = for {
      dim  <- Gen.oneOf(2, 3, 16)
      n    <- Gen.choose(0, 150)
      k    <- Gen.choose(-1, n + 3)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (dim, n, k, seed)
    var repeats, zeros, noneAsked, cut, all = 0
    val prop = Prop.forAllNoShrink(gen) { case (dim, n, k, seed) =>
      val rnd = new Random(seed)
      def unit(): Array[Float] = Linalg.normalize(Array.fill(dim)(rnd.nextGaussian().toFloat))
      // some vectors repeat an earlier one and some are zero, so scores tie exactly
      var repeated, zero = false
      val vecs = (0 until n).foldLeft(Vector.empty[Array[Float]]) { (acc, i) =>
        acc :+ (rnd.nextInt(6) match {
          case 0          => zero = true; new Array[Float](dim)
          case 1 if i > 0 => repeated = true; acc(rnd.nextInt(i)).clone()
          case _          => unit()
        })
      }
      if (repeated) repeats += 1
      if (zero) zeros += 1
      if (k <= 0) noneAsked += 1 else if (k < n) cut += 1 else all += 1
      // ids fall with insertion order, so an id tie-break would read the ties backwards
      val ids   = vecs.indices.map(i => 3 * (n - i))
      val index = new LinearIndex(dim)
      ids.zip(vecs).foreach { case (id, v) => index.add(id, v) }
      val queries = Seq(unit(), new Array[Float](dim)) ++ vecs.take(1)
      queries.forall { q =>
        // a stable sort keeps insertion order among equal scores
        val reference = ids.zip(vecs.map(Linalg.dot(q, _)))
          .sortWith((a, b) => java.lang.Float.compare(a._2, b._2) > 0).take(k)
        bits(index.search(q, k)) == bits(reference)
      }
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop).passed)
    assert(Seq(repeats, zeros, noneAsked, cut, all).forall(_ > 0),
      s"repeated vectors $repeats, zero vectors $zeros, k ≤ 0 $noneAsked, 0 < k < n $cut, k ≥ n $all")
  }

  test("4 threads searching one index at once get the sequential answers bit for bit, also after a serialization round trip") {
    val rnd = new Random(21)
    val dim = 32
    def unit(): Array[Float] = Linalg.normalize(Array.fill(dim)(rnd.nextGaussian().toFloat))
    val centers = IndexedSeq.fill(30)(unit())
    def point(): Array[Float] = {
      val c = centers(rnd.nextInt(centers.size)); val e = unit()
      Linalg.normalize(Array.tabulate(dim)(p => c(p) + 0.4f * e(p)))
    }
    val vecs    = IndexedSeq.fill(2000)(point())
    val queries = IndexedSeq.fill(80)(point())
    Seq(new LinearIndex(dim), new SimHashLsh(dim), new Hnsw(dim)).foreach { index =>
      // every index may be searched from several threads; only LSH keeps a query's probes on its thread
      assert(index.concurrentSearch == !index.isInstanceOf[SimHashLsh], index.getClass.getSimpleName)
      vecs.zipWithIndex.foreach { case (v, i) => index.add(i, v) }
      val sequential = queries.map(q => bits(index.search(q, 20)))
      Seq(index, roundTrip(index)).foreach { ix =>
        searchedAtOnce(ix, queries, 20, threads = 4).foreach { answers =>
          assert(answers.map(bits) == sequential, ix.getClass.getSimpleName)
        }
      }
    }
  }
}

object VectorIndexSpec {
  /** each answer as (id, raw score bits), so that equality is bit equality */
  def bits(res: IndexedSeq[(Int, Float)]): IndexedSeq[(Int, Int)] =
    res.map { case (id, s) => (id, java.lang.Float.floatToRawIntBits(s)) }

  def roundTrip[T <: VectorIndex](ix: T): T = {
    import java.io._
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(ix); out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[T]
  }

  /** The answers to every query, one sequence per thread, from `threads`
    * threads released together that each search all queries, starting at
    * its own offset.
    */
  def searchedAtOnce(index: VectorIndex, queries: IndexedSeq[Array[Float]], k: Int,
                     threads: Int): Seq[IndexedSeq[IndexedSeq[(Int, Float)]]] = {
    val go = new java.util.concurrent.CountDownLatch(1)
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]()
    val out = Array.fill(threads)(new Array[IndexedSeq[(Int, Float)]](queries.size))
    val workers = (0 until threads).map { t =>
      new Thread(() =>
        try {
          go.await()
          queries.indices.foreach { j =>
            val i = (j + t * queries.size / threads) % queries.size
            out(t)(i) = index.search(queries(i), k)
          }
        } catch { case e: Throwable => failures.add(e) })
    }
    workers.foreach(_.start()); go.countDown(); workers.foreach(_.join())
    assert(failures.isEmpty, s"searches failed: $failures")
    out.map(_.toIndexedSeq).toSeq
  }
}
