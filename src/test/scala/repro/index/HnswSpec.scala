package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Linalg
import scala.util.Random

class HnswSpec extends AnyFunSuite {
  import VectorIndexSpec.{bits, roundTrip, searchedAtOnce}

  private def randomUnit(d: Int, rnd: Random): Array[Float] =
    Linalg.normalize(Array.fill(d)(rnd.nextGaussian().toFloat))

  /** SHA-256 input: each answer's (id, score bits), by score descending then id */
  private def digestAnswers(md: java.security.MessageDigest, res: IndexedSeq[(Int, Float)]): Unit = {
    val buf = java.nio.ByteBuffer.allocate(8)
    res.sortWith { case ((i1, s1), (i2, s2)) => if (s1 != s2) s1 > s2 else i1 < i2 }
      .foreach { case (id, s) =>
        buf.clear()
        buf.putInt(id).putInt(java.lang.Float.floatToIntBits(s))
        md.update(buf.array())
      }
  }

  private def hex(md: java.security.MessageDigest): String =
    md.digest().map(b => f"$b%02x").mkString

  test("empty index returns nothing") {
    val h = new Hnsw(4)
    assert(h.search(Array(1f, 0f, 0f, 0f), 5).isEmpty)
  }

  test("single element is found") {
    val h = new Hnsw(2)
    h.add(7, Array(1f, 0f))
    val res = h.search(Array(1f, 0f), 1)
    assert(res.size == 1 && res.head._1 == 7)
    assert(math.abs(res.head._2 - 1f) < 1e-6)
  }

  test("exact nearest neighbour on a tiny set") {
    val h = new Hnsw(2)
    h.add(0, Array(1f, 0f))
    h.add(1, Array(0f, 1f))
    h.add(2, Linalg.normalized(Array(1f, 0.1f)))
    val res = h.search(Array(1f, 0f), 2).map(_._1)
    assert(res.head == 0 && res(1) == 2)
  }

  test("results are sorted by similarity descending") {
    val rnd = new Random(1)
    val h = new Hnsw(8)
    (0 until 200).foreach(i => h.add(i, randomUnit(8, rnd)))
    val res = h.search(randomUnit(8, rnd), 10)
    assert(res.map(_._2).toSeq == res.map(_._2).sortBy(-_).toSeq)
  }

  test("recall@10 ≥ 0.9 vs linear scan on 2000 random vectors") {
    val rnd = new Random(2)
    val d = 16
    val vecs = IndexedSeq.fill(2000)(randomUnit(d, rnd))
    val hnsw = new Hnsw(d, m = 16, efConstruction = 100, efSearch = 80)
    val lin  = new LinearIndex(d)
    vecs.zipWithIndex.foreach { case (v, i) => hnsw.add(i, v); lin.add(i, v) }
    val recalls = (0 until 30).map { _ =>
      val q = randomUnit(d, rnd)
      val exact  = lin.search(q, 10).map(_._1).toSet
      val approx = hnsw.search(q, 10).map(_._1).toSet
      exact.intersect(approx).size.toDouble / exact.size
    }
    val avg = recalls.sum / recalls.size
    assert(avg >= 0.9, s"HNSW recall too low: $avg")
  }

  test("recall on clustered data (the lake regime) is near-perfect") {
    val rnd = new Random(4)
    val d = 16
    // 20 clusters of 50 vectors each
    val centers = IndexedSeq.fill(20)(randomUnit(d, rnd))
    val vecs = (0 until 1000).map { i =>
      val c = centers(i % 20)
      Linalg.normalized(c.zip(randomUnit(d, rnd)).map { case (a, b) => a + 0.15f * b })
    }
    val hnsw = new Hnsw(d)
    val lin  = new LinearIndex(d)
    vecs.zipWithIndex.foreach { case (v, i) => hnsw.add(i, v); lin.add(i, v) }
    val recalls = centers.map { q =>
      val exact  = lin.search(q, 20).map(_._1).toSet
      val approx = hnsw.search(q, 20).map(_._1).toSet
      exact.intersect(approx).size.toDouble / exact.size
    }
    assert(recalls.sum / recalls.size >= 0.95)
  }

  test("search is deterministic for a fixed build seed") {
    val rnd = new Random(5)
    def build(): Hnsw = {
      val h = new Hnsw(8, seed = 99)
      val r = new Random(3)
      (0 until 300).foreach(i => h.add(i, randomUnit(8, r)))
      h
    }
    val q = randomUnit(8, rnd)
    assert(build().search(q, 5) == build().search(q, 5))
  }

  test("memoryBytes grows with inserts") {
    val h = new Hnsw(8)
    val rnd = new Random(6)
    h.add(0, randomUnit(8, rnd))
    val m1 = h.memoryBytes
    (1 until 100).foreach(i => h.add(i, randomUnit(8, rnd)))
    assert(h.memoryBytes > m1)
    assert(h.size == 100)
  }

  test("build and search match the reference digest of the original implementation") {
    // SHA-256 over every query's (id, score bits), sorted by score descending
    // then id, recorded from the neighbour selection that keeps no refill
    val rnd = new Random(11)
    val d = 16
    val h = new Hnsw(d, seed = 5)
    (0 until 2000).foreach(i => h.add(i, randomUnit(d, rnd)))
    val md = java.security.MessageDigest.getInstance("SHA-256")
    (0 until 50).foreach { _ =>
      val res = h.search(randomUnit(d, rnd), 64)
      assert(res.size == 64)
      digestAnswers(md, res)
    }
    assert(hex(md) ==
      "7378e9ece81bb34a69b2ea6f317546162fbc8a0783bceecd267cb67ce56d97b9")
    assert(h.memoryBytes == 309288L)
  }

  test("embedding-width build interleaved with searches matches its reference digest") {
    // d = 128 with m = 4: six layers, and link lists fill up, so 956 of the
    // 1,500 inserts re-select at least one overflowing list (2,543 lists in
    // all). Searches interleave with adds as in an ingesting lake, and the
    // index makes one serialization round trip half way. Recorded from the
    // neighbour selection that keeps no refill.
    val rnd = new Random(12)
    val d = 128
    val centers = IndexedSeq.fill(40)(randomUnit(d, rnd))
    def point(): Array[Float] = {
      val c = centers(rnd.nextInt(centers.size))
      val e = randomUnit(d, rnd)
      Linalg.normalize(Array.tabulate(d)(p => c(p) + 0.3f * e(p)))
    }
    var h = new Hnsw(d, m = 4, efConstruction = 40, efSearch = 32, seed = 17)
    val md = java.security.MessageDigest.getInstance("SHA-256")
    (0 until 1500).foreach { i =>
      h.add(i, point())
      if (i % 5 == 4) digestAnswers(md, h.search(point(), 16))
      if (i == 750) h = roundTrip(h)
    }
    assert(hex(md) == "c1bc86b0e942df691fa6e0085473f4c2547d753dff7aa53b5a47c8eb64101c8d")
    assert(h.memoryBytes == 817168L)
  }

  test("equal scores come back in ascending id order") {
    val rnd = new Random(7)
    val d = 8
    val v = randomUnit(d, rnd)
    val h = new Hnsw(d)
    val copies = (0 until 60).filter { i =>
      val dup = i % 5 == 2
      h.add(i, if (dup) v.clone() else randomUnit(d, rnd))
      dup
    }
    val res = h.search(v, copies.size)
    assert(res.map(_._2).distinct == IndexedSeq(Linalg.dot(v, v)))
    assert(res.map(_._1) == copies)
  }

  test("a Java-serialization round trip keeps searches and later inserts identical") {
    val rnd = new Random(8)
    val d = 16
    val h = new Hnsw(d, seed = 3)
    (0 until 500).foreach(i => h.add(i, randomUnit(d, rnd)))
    val copy = roundTrip(h)
    val queries = IndexedSeq.fill(20)(randomUnit(d, rnd))
    assert(queries.map(copy.search(_, 10)) == queries.map(h.search(_, 10)))
    (500 until 700).foreach { i => val v = randomUnit(d, rnd); h.add(i, v); copy.add(i, v) }
    assert(queries.map(copy.search(_, 10)) == queries.map(h.search(_, 10)))
    assert(copy.size == h.size && copy.memoryBytes == h.memoryBytes)
  }

  test("searches from 4 threads at once, also after a round trip, leave answers and later inserts as in a sequential twin") {
    val rnd = new Random(31)
    val d = 128
    val vecs    = IndexedSeq.fill(3500)(randomUnit(d, rnd))
    val queries = IndexedSeq.fill(60)(randomUnit(d, rnd))
    val h    = new Hnsw(d, seed = 5)
    val twin = new Hnsw(d, seed = 5)
    (0 until 3000).foreach { i => h.add(i, vecs(i)); twin.add(i, vecs(i)) }
    val sequential = queries.map(q => bits(twin.search(q, 16)))
    searchedAtOnce(h, queries, 16, threads = 4).foreach(a => assert(a.map(bits) == sequential))
    val copy = roundTrip(h)
    searchedAtOnce(copy, queries, 16, threads = 4).foreach(a => assert(a.map(bits) == sequential))
    // inserts after the concurrent searches build the twin's graph
    (3000 until 3500).foreach { i => copy.add(i, vecs(i)); twin.add(i, vecs(i)) }
    assert(copy.memoryBytes == twin.memoryBytes)
    val after = queries.map(q => bits(twin.search(q, 16)))
    searchedAtOnce(copy, queries, 16, threads = 4).foreach(a => assert(a.map(bits) == after))
  }

  test("link lists stay within their cap, hold distinct nodes of their layer, and re-selected lists hold only diverse picks (property)") {
    val rnd = new Random(41)
    var reselected = 0
    for (m <- Seq(2, 4, 16); d <- Seq(8, 128); trial <- 0 until 2) {
      def cap(layer: Int): Int = if (layer == 0) 2 * m else m
      val h = new Hnsw(d, m = m, efConstruction = 24 + 16 * trial, seed = rnd.nextLong())
      val vecs = scala.collection.mutable.ArrayBuffer[Array[Float]]()
      // one in ten all-zero, one in five a copy of an earlier vector
      def point(): Array[Float] = rnd.nextInt(10) match {
        case 0 => new Array[Float](d)
        case 1 | 2 if vecs.nonEmpty => vecs(rnd.nextInt(vecs.size)).clone()
        case _ => randomUnit(d, rnd)
      }
      (0 until 300).foreach { node =>
        // a list at its cap that an insert changes was re-selected on overflow
        val full = for {
          x <- 0 until node; (list, layer) <- h.linksOf(x).zipWithIndex if list.size == cap(layer)
        } yield (x, layer, list)
        val v = point()
        vecs += v
        h.add(node, v)
        full.foreach { case (x, layer, before) =>
          val after = h.linksOf(x)(layer)
          if (after != before) {
            reselected += 1
            for (i <- after.indices; j <- 0 until i) {
              val pick = vecs(after(i))
              assert(Linalg.dot(pick, vecs(after(j))) < Linalg.dot(pick, vecs(x)),
                s"m $m, d $d: pick ${after(i)} of node $x on layer $layer is not diverse")
            }
          }
        }
      }
      (0 until 300).foreach { x =>
        h.linksOf(x).zipWithIndex.foreach { case (list, layer) =>
          assert(list.size <= cap(layer), s"m $m, d $d: node $x, layer $layer")
          assert(!list.contains(x) && list.distinct.size == list.size, s"m $m, d $d: node $x, layer $layer")
          assert(list.forall(y => h.linksOf(y).size > layer), s"m $m, d $d: node $x, layer $layer")
        }
      }
    }
    assert(reselected > 100)
  }

  test("m below 2 is rejected") {
    intercept[IllegalArgumentException](new Hnsw(4, m = 1))
  }

  test("a query whose length is not the index dimension is rejected") {
    val h = new Hnsw(4)
    h.add(0, Array(1f, 0f, 0f, 0f))
    intercept[IllegalArgumentException](h.search(Array(1f, 0f, 0f), 1))
    intercept[IllegalArgumentException](h.search(Array(1f, 0f, 0f, 0f, 0f), 1))
  }
}
