package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  private val rel = Set("a", "b", "c")

  test("AP@k of perfect ranking is 1") {
    assert(Metrics.apAtK(Seq("a", "b", "c"), rel, 3) == 1.0)
  }

  test("AP@k of empty ranking is 0") {
    assert(Metrics.apAtK(Seq.empty, rel, 3) == 0.0)
  }

  test("AP@k with no relevant set is 0") {
    assert(Metrics.apAtK(Seq("a"), Set.empty, 3) == 0.0)
  }

  test("AP@k penalizes late hits") {
    val early = Metrics.apAtK(Seq("a", "x", "y"), rel, 3)
    val late  = Metrics.apAtK(Seq("x", "y", "a"), rel, 3)
    assert(early > late && late > 0)
  }

  test("AP@k normalizes by min(k, |relevant|)") {
    // 5 relevant, k=2, both hits: AP = (1 + 1) / 2 = 1
    val rel5 = Set("a", "b", "c", "d", "e")
    assert(Metrics.apAtK(Seq("a", "b"), rel5, 2) == 1.0)
  }

  test("AP@k known small example") {
    // hits at ranks 1 and 3 of k=3, |rel|=3: (1/1 + 2/3) / 3
    val ap = Metrics.apAtK(Seq("a", "x", "b"), rel, 3)
    assert(math.abs(ap - (1.0 + 2.0 / 3) / 3) < 1e-12)
  }

  test("P@k counts the hit fraction of the prefix") {
    assert(Metrics.precisionAtK(Seq("a", "x", "b", "y"), rel, 4) == 0.5)
  }

  test("R@k is hits over relevant size") {
    assert(Metrics.recallAtK(Seq("a", "x"), rel, 2) == 1.0 / 3)
  }

  test("IDEAL recall caps at min(k,|rel|)/|rel|") {
    assert(Metrics.idealRecallAtK(rel, 2) == 2.0 / 3)
    assert(Metrics.idealRecallAtK(rel, 10) == 1.0)
  }

  test("every @k metric requires k > 0") {
    for (k <- Seq(0, -1)) {
      val calls = Seq[(String, () => Double)](
        "AP"    -> (() => Metrics.apAtK(Seq("a"), rel, k)),
        "P"     -> (() => Metrics.precisionAtK(Seq("a"), rel, k)),
        "R"     -> (() => Metrics.recallAtK(Seq("a"), rel, k)),
        "IDEAL" -> (() => Metrics.idealRecallAtK(rel, k)))
      calls.foreach { case (name, call) =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"k must be positive, got $k"), s"$name@$k")
      }
    }
  }

  test("recall can never exceed IDEAL") {
    val ranked = Seq("a", "b", "x")
    assert(Metrics.recallAtK(ranked, rel, 2) <= Metrics.idealRecallAtK(rel, 2))
  }

  test("purity of perfectly pure clusters is 1") {
    val p = Metrics.purity(Seq(Seq("a1", "a2"), Seq("b1")), s => s.take(1))
    assert(p == 1.0)
  }

  test("purity of mixed clusters counts the majority") {
    // cluster {a,a,b}: majority 2 of 3
    val p = Metrics.purity(Seq(Seq("a1", "a2", "b1")), s => s.take(1))
    assert(math.abs(p - 2.0 / 3) < 1e-12)
  }

  test("purity of empty clustering is 0") {
    assert(Metrics.purity(Seq.empty, identity) == 0.0)
  }
}
