package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class BoundsSpec extends AnyFunSuite {

  // ---- reference: the tuple-based bounds that sort the edges once per bound --

  private def oracleEdges(sim: Array[Array[Double]], tau: Double): IndexedSeq[(Int, Int, Double)] = {
    val out = scala.collection.mutable.ArrayBuffer[(Int, Int, Double)]()
    var i = 0
    while (i < sim.length) {
      var j = 0
      while (j < sim(i).length) {
        if (sim(i)(j) >= tau) out += ((i, j, sim(i)(j)))
        j += 1
      }
      i += 1
    }
    out.sortBy(-_._3).toIndexedSeq
  }

  private def oracleUpperBound(sim: Array[Array[Double]], tau: Double): Double = {
    if (sim.isEmpty || sim(0).isEmpty) return 0.0
    val m = sim.length; val n = sim(0).length
    val coveredS = new Array[Boolean](m)
    val coveredT = new Array[Boolean](n)
    var cs = 0; var ct = 0
    var total = 0.0
    val it = oracleEdges(sim, tau).iterator
    var stop = false
    while (it.hasNext && !stop) {
      val (i, j, w) = it.next()
      total += w
      if (!coveredS(i)) { coveredS(i) = true; cs += 1 }
      if (!coveredT(j)) { coveredT(j) = true; ct += 1 }
      if (cs == m || ct == n) stop = true
    }
    total
  }

  private def oracleLowerBound(sim: Array[Array[Double]], tau: Double): Double = {
    if (sim.isEmpty || sim(0).isEmpty) return 0.0
    val m = sim.length; val n = sim(0).length
    val usedS = new Array[Boolean](m)
    val usedT = new Array[Boolean](n)
    var total = 0.0
    oracleEdges(sim, tau).foreach { case (i, j, w) =>
      if (!usedS(i) && !usedT(j)) {
        usedS(i) = true; usedT(j) = true
        total += w
      }
    }
    total
  }

  private val fig7: Array[Array[Double]] = {
    val w = Array.ofDim[Double](4, 3)
    w(0)(0) = 0.8; w(0)(1) = 0.85
    w(1)(1) = 0.7
    w(2)(2) = 0.3
    w(3)(2) = 0.65
    w
  }

  test("Example 4.2: upper bound is 3.0") {
    assert(math.abs(Bounds.upperBound(fig7, 0.5) - 3.0) < 1e-9)
  }

  test("Example 4.2: lower bound is 1.5") {
    assert(math.abs(Bounds.lowerBound(fig7, 0.5) - 1.5) < 1e-9)
  }

  test("Example 4.2: LB ≤ exact (2.15) ≤ UB") {
    val exact = Matching.unionability(fig7, 0.5)
    assert(math.abs(exact - 2.15) < 1e-9)
    assert(Bounds.lowerBound(fig7, 0.5) <= exact)
    assert(exact <= Bounds.upperBound(fig7, 0.5))
  }

  test("bounds of an empty graph are 0") {
    assert(Bounds.upperBound(Array.empty[Array[Double]], 0.5) == 0.0)
    assert(Bounds.lowerBound(Array(Array(0.1)), 0.5) == 0.0)
  }

  test("bounds collapse to the exact value for a single edge") {
    val w = Array(Array(0.9))
    assert(Bounds.upperBound(w, 0.5) == 0.9)
    assert(Bounds.lowerBound(w, 0.5) == 0.9)
  }

  test("LB ≤ exact ≤ UB on random matrices (property)") {
    val gen = for {
      m <- Gen.choose(1, 6)
      n <- Gen.choose(1, 6)
      tau <- Gen.choose(0.0, 0.8)
      vals <- Gen.listOfN(m * n, Gen.choose(0.0, 1.0))
    } yield (Array.tabulate(m, n)((i, j) => vals(i * n + j)), tau)
    val prop = Prop.forAll(gen) { case (w, tau) =>
      val exact = Matching.unionability(w, tau)
      val lb = Bounds.lowerBound(w, tau)
      val ub = Bounds.upperBound(w, tau)
      lb <= exact + 1e-9 && exact <= ub + 1e-9
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop).passed)
  }

  test("UB stops once one side is fully covered") {
    // two rows, one column: after the heaviest edge the column side is covered
    val w = Array(Array(0.9), Array(0.8))
    assert(Bounds.upperBound(w, 0.5) == 0.9)
  }

  test("LB equals exact when the greedy choice is optimal") {
    val w = Array(
      Array(1.0, 0.0),
      Array(0.0, 0.9))
    val exact = Matching.unionability(w, 0.5)
    assert(Bounds.lowerBound(w, 0.5) == exact)
  }

  test("single-sort LB and UB equal the tuple-based reference bits (property)") {
    // a few repeated values give exact weight ties, ±0.0 included; τ ≤ 0
    // keeps zero and negative edges
    val weight = Gen.frequency(
      3 -> Gen.choose(-1.0, 1.0),
      2 -> Gen.oneOf(-0.0, 0.0, 0.3, 0.45, 0.5, 0.7, 1.0))
    val gen = for {
      m    <- Gen.choose(0, 5)
      n    <- Gen.choose(0, 9)
      tau  <- Gen.oneOf(Gen.choose(-0.5, 0.9), Gen.oneOf(0.0, 0.45, 0.5))
      vals <- Gen.listOfN(m * n, weight)
    } yield (Array.tabulate(m, n)((i, j) => vals(i * n + j)), tau)
    def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
    val prop = Prop.forAllNoShrink(gen) { case (w, tau) =>
      bits(Bounds.lowerBound(w, tau)) == bits(oracleLowerBound(w, tau)) &&
        bits(Bounds.upperBound(w, tau)) == bits(oracleUpperBound(w, tau))
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(2000), prop).passed)
  }
}
