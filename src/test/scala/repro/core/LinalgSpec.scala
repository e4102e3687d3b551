package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class LinalgSpec extends AnyFunSuite {

  private def check(p: Prop, n: Int = 50): Unit =
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), p).passed)

  /** Reference kernels: the dense y = W x and grad += g ⊗ x that the sparse
    * ones replaced. The sparse kernels must give their bits.
    */
  private def denseMatVec(w: Array[Array[Float]], x: Array[Float]): Array[Float] =
    w.map(Linalg.dot(_, x))

  private def denseOuterAdd(grad: Array[Array[Float]], g: Array[Float], x: Array[Float]): Unit =
    g.indices.foreach { r =>
      if (g(r) != 0.0f) Linalg.axpy(g(r), x, grad(r))
    }

  private def bits(a: Array[Float]): Seq[Int] = a.toSeq.map(java.lang.Float.floatToRawIntBits)

  /** Finite floats with exact zeros of both signs, subnormals and values
    * near the bottom of the normal range, so products and sums underflow.
    */
  private val edgyFloat: Gen[Float] = Gen.frequency(
    4 -> Gen.const(0.0f),
    2 -> Gen.const(-0.0f),
    1 -> Gen.oneOf(Float.MinPositiveValue, -Float.MinPositiveValue, 1e-40f, -3e-39f),
    1 -> Gen.choose(-1e-19f, 1e-19f),
    4 -> Gen.choose(-2.0f, 2.0f))

  private val vecGen: Gen[Array[Float]] =
    Gen.choose(2, 16).flatMap(d =>
      Gen.listOfN(d, Gen.choose(-5.0f, 5.0f)).map(_.toArray))

  test("dot of orthonormal basis vectors") {
    assert(Linalg.dot(Array(1f, 0f), Array(0f, 1f)) == 0f)
    assert(Linalg.dot(Array(1f, 0f), Array(1f, 0f)) == 1f)
  }

  test("norm of 3-4-5 triangle") {
    assert(math.abs(Linalg.norm(Array(3f, 4f)) - 5f) < 1e-6)
  }

  test("normalize produces unit norm (property)") {
    check(Prop.forAll(vecGen) { v =>
      val n = Linalg.norm(Linalg.normalized(v))
      Linalg.norm(v) < 1e-6f || math.abs(n - 1f) < 1e-4
    })
  }

  test("normalize leaves the zero vector untouched") {
    val z = Array(0f, 0f, 0f)
    assert(Linalg.normalize(z).forall(_ == 0f))
  }

  test("cosine is bounded in [-1, 1] (property)") {
    check(Prop.forAll(vecGen) { v =>
      val w = v.map(x => x * 2f + 1f)
      val c = Linalg.cosine(v, w)
      c >= -1.0001f && c <= 1.0001f
    })
  }

  test("cosine of a vector with itself is 1") {
    check(Prop.forAll(vecGen) { v =>
      Linalg.norm(v) < 1e-6f || math.abs(Linalg.cosine(v, v) - 1f) < 1e-4
    })
  }

  test("cosine with zero vector is 0") {
    assert(Linalg.cosine(Array(1f, 2f), Array(0f, 0f)) == 0f)
  }

  test("matVec matches manual computation") {
    val w = Array(Array(1f, 2f), Array(3f, 4f))
    val y = Linalg.matVecSparse(w, Linalg.sparse(Array(5f, 6f)))
    assert(y.toSeq == Seq(17f, 39f))
  }

  test("sparse keeps the non-zero entries in ascending order") {
    val s = Linalg.sparse(Array(0f, 3f, -0.0f, -1f, 0f, Float.MinPositiveValue))
    assert(s.idx.toSeq == Seq(1, 3, 5))
    assert(s.vals.toSeq == Seq(3f, -1f, Float.MinPositiveValue))
    assert(Linalg.sparse(Array.fill(4)(0f)).idx.isEmpty)
  }

  test("axpy accumulates alpha*x into y") {
    val y = Array(1f, 1f)
    Linalg.axpy(2f, Array(3f, 4f), y)
    assert(y.toSeq == Seq(7f, 9f))
  }

  test("outerAdd performs rank-1 update") {
    // held transposed: gT(j) is column j of g ⊗ x
    val gT = new Array[Array[Float]](3)
    Linalg.outerAddSparse(gT, Array(1f, 2f), Linalg.sparse(Array(3f, 0f, 4f)))
    assert(gT(0).toSeq == Seq(3f, 6f))
    assert(gT(1) == null, "no entry for a zero of x")
    assert(gT(2).toSeq == Seq(4f, 8f))
  }

  test("sparse W·x and rank-1 update give the dense bits (property)") {
    // rows cover every leftover of the 4-row blocking; the update runs up to
    // 3 times from zeros, as the gradient of a batch accumulates
    val gen = for {
      rows <- Gen.choose(1, 9)
      cols <- Gen.choose(1, 40)
      w    <- Gen.listOfN(rows, Gen.listOfN(cols, edgyFloat).map(_.toArray))
      xs   <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.listOfN(cols, edgyFloat).map(_.toArray)))
      gs   <- Gen.listOfN(xs.size, Gen.listOfN(rows, edgyFloat).map(_.toArray))
    } yield (w.toArray, xs, gs)
    check(Prop.forAllNoShrink(gen) { case (w, xs, gs) =>
      val cols      = w(0).length
      val gradT     = new Array[Array[Float]](cols)
      val denseGrad = Array.ofDim[Float](w.length, cols)
      xs.zip(gs).foreach { case (x, g) =>
        Linalg.outerAddSparse(gradT, g, Linalg.sparse(x))
        denseOuterAdd(denseGrad, g, x)
      }
      val sparseGrad = Array.tabulate(w.length, cols)((r, j) => if (gradT(j) == null) 0.0f else gradT(j)(r))
      xs.forall(x => bits(Linalg.matVecSparse(w, Linalg.sparse(x))) == bits(denseMatVec(w, x))) &&
        denseGrad.indices.forall(r => bits(sparseGrad(r)) == bits(denseGrad(r)))
    }, 2000)
  }

  test("isFinite rejects NaN and infinities") {
    assert(Linalg.isFinite(Array(Array(1f, -0.0f, Float.MaxValue))))
    Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity).foreach { v =>
      assert(!Linalg.isFinite(Array(Array(1f), Array(0f, v))))
    }
  }

  test("randomMatrix is deterministic in the seed") {
    val a = Linalg.randomMatrix(3, 4, 42)
    val b = Linalg.randomMatrix(3, 4, 42)
    assert(a.flatten.toSeq == b.flatten.toSeq)
    val c = Linalg.randomMatrix(3, 4, 43)
    assert(a.flatten.toSeq != c.flatten.toSeq)
  }

  test("dotGather gives dot's bits for every gathered row (property)") {
    // counts 0–9 cover the 4-wide tiles and every leftover; ids repeat and
    // come in any order, and the gather may start past the head of `nodes`
    val gen = for {
      d     <- Gen.choose(1, 40)
      rows  <- Gen.choose(1, 6)
      vecs  <- Gen.listOfN(rows, Gen.listOfN(d, edgyFloat).map(_.toArray))
      q     <- Gen.listOfN(d, edgyFloat).map(_.toArray)
      from  <- Gen.choose(0, 2)
      count <- Gen.choose(0, 9)
      nodes <- Gen.listOfN(from + count, Gen.choose(0, rows - 1))
    } yield (vecs.toArray, q, nodes.toArray, from, count)
    check(Prop.forAllNoShrink(gen) { case (vecs, q, nodes, from, count) =>
      val out = Array.fill(count + 1)(Float.NaN)
      Linalg.dotGather(q, vecs, nodes, from, count, out)
      // Hnsw compares against one dot per neighbour with either argument first
      val expected = Array.tabulate(count)(i => Linalg.dot(vecs(nodes(from + i)), q))
      val swapped  = Array.tabulate(count)(i => Linalg.dot(q, vecs(nodes(from + i))))
      bits(out.take(count)) == bits(expected) && bits(swapped) == bits(expected) &&
        out(count).isNaN
    }, 2000)
  }

  test("dotBlock equals Matching.simMatrix bit for bit (property)") {
    // m and n cover every leftover row and column of the 2 × 4 blocking, and
    // the column range [from, until) every offset of its tiles
    val gen = for {
      m <- Gen.choose(0, 5)
      n <- Gen.choose(0, 9)
      d <- Gen.choose(1, 33)
      v  = Gen.listOfN(d, Gen.choose(-1.0f, 1.0f)).map(_.toArray)
      a <- Gen.listOfN(m, v)
      b <- Gen.listOfN(n, v)
      from  <- Gen.choose(0, n)
      until <- Gen.choose(from, n)
    } yield (a.toArray, b.toArray, from, until)
    check(Prop.forAllNoShrink(gen) { case (a, b, from, until) =>
      val out = Array.fill(a.length, b.length)(Float.NaN)
      Linalg.dotBlock(a, b, from, until, out)
      val sim = Matching.simMatrix(a.toIndexedSeq, b.toIndexedSeq)
      a.indices.forall(i => b.indices.forall(j =>
        if (j < from || j >= until) out(i)(j).isNaN
        else java.lang.Float.floatToIntBits(out(i)(j)) ==
          java.lang.Float.floatToIntBits(sim(i)(j).toFloat)))
    }, 1000)
  }

  test("dotByDim equals Matching.simMatrix bit for bit and leaves entries outside its range (property)") {
    // n runs past two chunks of ByDimChunk columns, and [from, until) starts
    // and ends at every offset, chunk boundaries included; entries hold
    // exact ±0 and subnormals, and some lake columns are all zero
    val chunk = Linalg.ByDimChunk
    val gen = for {
      m <- Gen.choose(0, 9)
      d <- Gen.choose(1, 9)
      n <- Gen.frequency(1 -> Gen.choose(0, 9), 3 -> Gen.choose(2 * chunk + 1, 2 * chunk + 9))
      col = Gen.frequency(1 -> Gen.const(new Array[Float](d)), 5 -> Gen.listOfN(d, edgyFloat).map(_.toArray))
      q    <- Gen.listOfN(m, Gen.listOfN(d, edgyFloat).map(_.toArray))
      lake <- Gen.listOfN(n, col)
      cut   = Gen.frequency(1 -> Gen.choose(0, n),
                            1 -> Gen.oneOf(0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk, n).map(math.min(_, n)))
      ends <- Gen.listOfN(2, cut)
    } yield (q.toArray, lake.toArray, d, ends.min, ends.max)
    check(Prop.forAllNoShrink(gen) { case (q, lake, d, from, until) =>
      val byDim = Array.tabulate(d, lake.length)((p, j) => lake(j)(p))
      val out = Array.fill(q.length, lake.length)(Float.NaN)
      Linalg.dotByDim(q, byDim, from, until, out)
      val sim = Matching.simMatrix(q.toIndexedSeq, lake.toIndexedSeq)
      q.indices.forall(i => lake.indices.forall(j =>
        if (j < from || j >= until) out(i)(j).isNaN
        else java.lang.Float.floatToRawIntBits(out(i)(j)) ==
          java.lang.Float.floatToRawIntBits(sim(i)(j).toFloat)))
    }, 200)
  }
}
