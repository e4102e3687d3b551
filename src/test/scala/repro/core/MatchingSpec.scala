package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class MatchingSpec extends AnyFunSuite {

  /** exponential-time exact matching for cross-checking */
  private def bruteForce(w: Array[Array[Double]]): Double = {
    val m = w.length
    if (m == 0) return 0.0
    val n = w(0).length
    def rec(i: Int, used: Set[Int]): Double =
      if (i == m) 0.0
      else {
        val skip = rec(i + 1, used)
        val takes = (0 until n).collect {
          case j if !used(j) && w(i)(j) > 0 => w(i)(j) + rec(i + 1, used + j)
        }
        (skip +: takes).max
      }
    rec(0, Set.empty)
  }

  /** weights of the paper's Figure 7 (τ = 0.5 already applied: the 0.3 edge
    * s3–t3 is below threshold).
    */
  private val fig7: Array[Array[Double]] = {
    val w = Array.ofDim[Double](4, 3)
    w(0)(0) = 0.8; w(0)(1) = 0.85 // s1-t1, s1-t2
    w(1)(1) = 0.7                 // s2-t2
    w(2)(2) = 0.3                 // s3-t3 — below τ
    w(3)(2) = 0.65                // s4-t3
    w
  }

  test("Figure 7 example: max matching is 2.15") {
    assert(math.abs(Matching.unionability(fig7, 0.5) - 2.15) < 1e-9)
  }

  test("unionability drops edges below τ and keeps edges at τ") {
    val w = Array(Array(0.3))
    assert(Matching.unionability(w, 0.5) == 0.0)
    assert(Matching.unionability(w, 0.3) == 0.3)
    // Figure 7 at τ = 0.7 keeps s2–t2 (0.7): s1–t1 + s2–t2; above it only s1–t2
    assert(Matching.unionability(fig7, 0.7) == 0.8 + 0.7)
    assert(Matching.unionability(fig7, 0.75) == 0.85)
    // a negative τ would keep the −0.95 edge, and the perfect assignment the
    // Hungarian method finds would then score 0 instead of 0.9
    val e = intercept[IllegalArgumentException](
      Matching.unionability(Array(Array(0.9, 0.0), Array(0.0, -0.95)), -1.0))
    assert(e.getMessage.contains("tau must be >= 0"))
  }

  test("empty matrices give zero score") {
    assert(Matching.unionability(Array.empty[Array[Double]], 0.5) == 0.0)
    assert(Matching.unionability(Array(Array.empty[Double]), 0.5) == 0.0)
  }

  test("single edge") {
    assert(Matching.unionability(Array(Array(0.9)), 0.5) == 0.9)
  }

  test("square identity-favoured matrix picks the diagonal") {
    val w = Array(
      Array(1.0, 0.1, 0.1),
      Array(0.1, 1.0, 0.1),
      Array(0.1, 0.1, 1.0))
    assert(math.abs(Matching.unionability(w, 0.0) - 3.0) < 1e-9)
  }

  test("greedy-suboptimal case is solved optimally") {
    // greedy would take (0,0)=0.9 then only (1,1)=0.1 → 1.0;
    // optimal is (0,1)+(1,0) = 0.8+0.8 = 1.6
    val w = Array(
      Array(0.9, 0.8),
      Array(0.8, 0.1))
    assert(math.abs(Matching.unionability(w, 0.0) - 1.6) < 1e-9)
  }

  test("wide matrix (more columns than rows)") {
    assert(Matching.unionability(Array(Array(0.1, 0.9, 0.3)), 0.0) == 0.9)
  }

  test("tall matrix (more rows than columns)") {
    assert(Matching.unionability(Array(Array(0.2), Array(0.9), Array(0.5)), 0.0) == 0.9)
  }

  test("a matching uses each row and column at most once") {
    // the optimum is (0,0) + (2,1) = 1.2; reusing column 0 would give 2.6,
    // and in the transpose reusing row 0 would
    val w = Array(
      Array(0.9, 0.2),
      Array(0.9, 0.1),
      Array(0.8, 0.3))
    val wt = Array.tabulate(2, 3)((i, j) => w(j)(i))
    assert(math.abs(Matching.unionability(w, 0.0) - 1.2) < 1e-9)
    assert(math.abs(Matching.unionability(wt, 0.0) - 1.2) < 1e-9)
  }

  test("Hungarian equals brute force on random small matrices (property)") {
    val gen = for {
      m <- Gen.choose(1, 5)
      n <- Gen.choose(1, 5)
      tau <- Gen.oneOf(0.0, 0.5)
      vals <- Gen.listOfN(m * n, Gen.choose(0.0, 1.0))
    } yield (Array.tabulate(m, n)((i, j) => vals(i * n + j)), tau)
    val prop = Prop.forAll(gen) { case (w, tau) =>
      val edges = w.map(_.map(x => if (x >= tau) x else 0.0))
      math.abs(Matching.unionability(w, tau) - bruteForce(edges)) < 1e-9
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(80), prop).passed)
  }

  test("tableUnionability of identical embeddings equals column count") {
    val e = IndexedSeq(Array(1f, 0f), Array(0f, 1f))
    val u = Matching.tableUnionability(e, e, 0.5)
    assert(math.abs(u - 2.0) < 1e-6)
  }

  test("tableUnionability is symmetric") {
    val rnd = new scala.util.Random(3)
    val a = IndexedSeq.fill(3)(Linalg.normalize(Array.fill(8)(rnd.nextGaussian().toFloat)))
    val b = IndexedSeq.fill(5)(Linalg.normalize(Array.fill(8)(rnd.nextGaussian().toFloat)))
    val u1 = Matching.tableUnionability(a, b, 0.0)
    val u2 = Matching.tableUnionability(b, a, 0.0)
    assert(math.abs(u1 - u2) < 1e-9)
  }
}
