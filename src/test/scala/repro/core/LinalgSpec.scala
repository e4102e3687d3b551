package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class LinalgSpec extends AnyFunSuite {

  private def check(p: Prop, n: Int = 50): Unit =
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), p).passed)

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
    val y = Linalg.matVec(w, Array(5f, 6f))
    assert(y.toSeq == Seq(17f, 39f))
  }

  test("axpy accumulates alpha*x into y") {
    val y = Array(1f, 1f)
    Linalg.axpy(2f, Array(3f, 4f), y)
    assert(y.toSeq == Seq(7f, 9f))
  }

  test("outerAdd performs rank-1 update") {
    val g = Linalg.zeros(2, 2)
    Linalg.outerAdd(g, 1.0f, Array(1f, 2f), Array(3f, 4f))
    assert(g(0).toSeq == Seq(3f, 4f))
    assert(g(1).toSeq == Seq(6f, 8f))
  }

  test("randomMatrix is deterministic in the seed") {
    val a = Linalg.randomMatrix(3, 4, 42)
    val b = Linalg.randomMatrix(3, 4, 42)
    assert(a.flatten.toSeq == b.flatten.toSeq)
    val c = Linalg.randomMatrix(3, 4, 43)
    assert(a.flatten.toSeq != c.flatten.toSeq)
  }

  test("dotBlock equals Matching.simMatrix bit for bit (property)") {
    // m and n cover every leftover row and column of the 2 × 4 blocking
    val gen = for {
      m <- Gen.choose(0, 5)
      n <- Gen.choose(0, 9)
      d <- Gen.choose(1, 33)
      v  = Gen.listOfN(d, Gen.choose(-1.0f, 1.0f)).map(_.toArray)
      a <- Gen.listOfN(m, v)
      b <- Gen.listOfN(n, v)
    } yield (a.toArray, b.toArray)
    check(Prop.forAllNoShrink(gen) { case (a, b) =>
      val out = new Array[Float](a.length * b.length)
      Linalg.dotBlock(a, b, out)
      val sim = Matching.simMatrix(a.toIndexedSeq, b.toIndexedSeq)
      a.indices.forall(i => b.indices.forall(j =>
        java.lang.Float.floatToIntBits(out(i * b.length + j)) ==
          java.lang.Float.floatToIntBits(sim(i)(j).toFloat)))
    }, 1000)
  }
}
