package repro.index

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Linalg
import scala.util.Random

class LshSpec extends AnyFunSuite {

  private def randomUnit(d: Int, rnd: Random): Array[Float] =
    Linalg.normalize(Array.fill(d)(rnd.nextGaussian().toFloat))

  private def holds(prop: Prop, tests: Int): Boolean =
    SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), prop).passed

  /** Reference keys: the planes drawn from `seed` as the original index drew
    * them, one array per plane, table by table, and the sign of one `dot` per
    * plane; bit b of table t's key is set when plane b's dot is ≥ 0.
    */
  private final class RefKeys(d: Int, nTables: Int, bits: Int, seed: Long) {
    private val planes = {
      val rnd = new Random(seed)
      Array.fill(nTables, bits)(Array.fill(d)(rnd.nextGaussian().toFloat))
    }
    def plane(t: Int, b: Int): Array[Float] = planes(t)(b)
    def apply(v: Array[Float]): IndexedSeq[Int] = planes.toIndexedSeq.map { tp =>
      tp.indices.foldLeft(0)((k, b) => if (Linalg.dot(tp(b), v) >= 0) k | (1 << b) else k)
    }
  }

  /** (id, score bits) of each answer, in order */
  private def answerBits(res: Seq[(Int, Float)]): Seq[(Int, Int)] =
    res.map { case (id, s) => (id, java.lang.Float.floatToRawIntBits(s)) }

  test("keys equal the signs of one dot per plane, bit for bit (property)") {
    // d = 8, 16, 128 under the default 8 × 12 planes, D3L's 6 × 10 at d = 512,
    // and d = 13 for dimensions left over from the four-at-a-time passes
    val shapes = Seq((8, 8, 12), (16, 8, 12), (128, 8, 12), (512, 6, 10), (13, 3, 5))
    val gen = for {
      (d, nTables, bits) <- Gen.oneOf(shapes)
      seed <- Gen.choose(0L, 1000L)
      vecSeed <- Gen.long
    } yield (d, nTables, bits, seed, vecSeed)
    assert(holds(Prop.forAllNoShrink(gen) { case (d, nTables, bits, seed, vecSeed) =>
      val lsh = new SimHashLsh(d, nTables, bits, seed)
      val ref = new RefKeys(d, nTables, bits, seed)
      val rnd = new Random(vecSeed)
      // random directions, the zero vector, and directions almost orthogonal
      // to a plane, whose dot is a rounding residue of either sign
      val nearPlane = Seq.fill(4) {
        val p = ref.plane(rnd.nextInt(nTables), rnd.nextInt(bits))
        val v = randomUnit(d, rnd)
        val c = Linalg.dot(p, v) / Linalg.dot(p, p)
        Linalg.normalize(v.indices.map(i => v(i) - c * p(i)).toArray)
      }
      val vs = Seq.fill(4)(randomUnit(d, rnd)) ++ nearPlane :+ new Array[Float](d)
      vs.forall(v => lsh.keys(v).toIndexedSeq == ref(v))
    }, 100))
  }

  test("search returns the union of the query's buckets by similarity descending, then node (property)") {
    // tiny keys put negative similarities in the buckets; a pool of repeated
    // directions and zero vectors gives exact ties; ids are shuffled so that
    // node order is not id order; k runs past the member count
    var negatives, ties, wholeUnion = 0
    val gen = for {
      d <- Gen.oneOf(4, 8, 13)
      nTables <- Gen.choose(1, 6)
      bits <- Gen.choose(1, 4)
      n <- Gen.choose(0, 80)
      k <- Gen.choose(-2, n + 5)
      seed <- Gen.long
    } yield (d, nTables, bits, n, k, seed)
    assert(holds(Prop.forAllNoShrink(gen) { case (d, nTables, bits, n, k, seed) =>
      val rnd = new Random(seed)
      val pool = Seq.fill(5)(randomUnit(d, rnd)) :+ new Array[Float](d)
      val vecs = IndexedSeq.fill(n)(if (rnd.nextBoolean()) pool(rnd.nextInt(pool.size)) else randomUnit(d, rnd))
      val ids = rnd.shuffle((0 until n).map(_ * 3 + 1))
      val lshSeed = rnd.nextInt(100).toLong
      val lsh = new SimHashLsh(d, nTables, bits, lshSeed)
      vecs.indices.foreach(i => lsh.add(ids(i), vecs(i)))
      val q = if (rnd.nextInt(8) == 0) pool(rnd.nextInt(pool.size)) else randomUnit(d, rnd)
      val ref = new RefKeys(d, nTables, bits, lshSeed)
      val qKeys = ref(q)
      val members = vecs.indices.filter { i =>
        val ks = ref(vecs(i))
        (0 until nTables).exists(t => ks(t) == qKeys(t))
      }
      val ranked = members.map(i => (i, Linalg.dot(vecs(i), q))).sortWith { case ((i1, s1), (i2, s2)) =>
        val c = java.lang.Float.compare(s1, s2)
        c > 0 || (c == 0 && i1 < i2)
      }
      val expected = if (k <= 0) Seq.empty else ranked.take(k).map { case (i, s) => (ids(i), s) }
      val got = answerBits(lsh.search(q, k))
      if (expected.count(_._2 < 0) >= 2) negatives += 1
      if (expected.map(_._2).distinct.size < expected.size) ties += 1
      if (k >= members.size && members.size >= 2) wholeUnion += 1
      got == answerBits(expected)
    }, 300))
    assert(negatives > 0 && ties > 0 && wholeUnion > 0, s"cases with 2+ negative answers $negatives, ties $ties, k ≥ members $wholeUnion")
  }

  test("k ≤ 0 returns nothing") {
    val lsh = new SimHashLsh(8)
    val rnd = new Random(11)
    (0 until 20).foreach(i => lsh.add(i, randomUnit(8, rnd)))
    val v = randomUnit(8, rnd)
    lsh.add(20, v)
    assert(lsh.search(v, 1).nonEmpty)
    assert(lsh.search(v, 0).isEmpty && lsh.search(v, -3).isEmpty)
  }

  test("a vector finds itself") {
    val lsh = new SimHashLsh(8)
    val rnd = new Random(1)
    val v = randomUnit(8, rnd)
    lsh.add(0, v)
    val res = lsh.search(v, 1)
    assert(res.nonEmpty && res.head._1 == 0)
  }

  test("near-duplicates land in the same bucket with high probability") {
    val rnd = new Random(2)
    val d = 16
    val lsh = new SimHashLsh(d, nTables = 8, bitsPerTable = 10)
    val bases = IndexedSeq.fill(50)(randomUnit(d, rnd))
    bases.zipWithIndex.foreach { case (v, i) => lsh.add(i, v) }
    // perturb slightly: cosine ≈ 0.99
    val found = bases.zipWithIndex.count { case (v, i) =>
      val q = Linalg.normalized(v.zip(randomUnit(d, rnd)).map { case (a, b) => a + 0.05f * b })
      lsh.search(q, 5).exists(_._1 == i)
    }
    assert(found >= 45, s"only $found/50 near-duplicates found")
  }

  test("random unrelated vectors are mostly not returned") {
    val rnd = new Random(3)
    val d = 32
    val lsh = new SimHashLsh(d, nTables = 4, bitsPerTable = 14)
    (0 until 500).foreach(i => lsh.add(i, randomUnit(d, rnd)))
    val sizes = (0 until 20).map(_ => lsh.search(randomUnit(d, rnd), 500).size)
    // with 14-bit keys, random vectors share buckets rarely
    assert(sizes.sum.toDouble / sizes.size < 100)
  }

  test("results are ranked by exact cosine") {
    val rnd = new Random(4)
    val d = 8
    val lsh = new SimHashLsh(d, nTables = 16, bitsPerTable = 4)
    (0 until 100).foreach(i => lsh.add(i, randomUnit(d, rnd)))
    val res = lsh.search(randomUnit(d, rnd), 10)
    assert(res.map(_._2).toSeq == res.map(_._2).sortBy(-_).toSeq)
  }

  test("deterministic for a fixed seed") {
    val rnd1 = new Random(7); val rnd2 = new Random(7)
    def build(r: Random): SimHashLsh = {
      val l = new SimHashLsh(8, seed = 5)
      (0 until 200).foreach(i => l.add(i, randomUnit(8, r)))
      l
    }
    val q = randomUnit(8, new Random(9))
    assert(build(rnd1).search(q, 5) == build(rnd2).search(q, 5))
  }

  test("memoryBytes accounts vectors, buckets and planes") {
    val lsh = new SimHashLsh(8, nTables = 2, bitsPerTable = 4)
    val empty = lsh.memoryBytes
    lsh.add(0, Array(1f, 0f, 0f, 0f, 0f, 0f, 0f, 0f))
    assert(lsh.memoryBytes > empty)
  }
}
