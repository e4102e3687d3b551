package repro.core

import org.scalatest.funsuite.AnyFunSuite

class EncoderSpec extends AnyFunSuite {

  private val feat = new Featurizer(FeatConfig(hashDim = 64))

  private val tables = Seq(
    TableData("t1", IndexedSeq(
      ColumnData("a", IndexedSeq("cityv1 north", "cityv2 south")),
      ColumnData("b", IndexedSeq("1997", "1998")))),
    TableData("t2", IndexedSeq(
      ColumnData("c", IndexedSeq("birdv1 old", "birdv2 new")))),
  )

  private def mkStarmie: StarmieEncoder =
    new StarmieEncoder(feat, Linalg.randomMatrix(16, feat.cfg.contextDim, 1))

  test("StarmieEncoder emits one unit vector per column") {
    val enc = mkStarmie
    val em = enc.encodeTable(tables.head)
    assert(em.size == 2)
    em.foreach(v => assert(math.abs(Linalg.norm(v) - 1f) < 1e-4))
    assert(em.head.length == 16)
  }

  test("SingleColEncoder ignores table context") {
    val enc = new SingleColEncoder(feat, Linalg.randomMatrix(16, feat.cfg.colDim, 2))
    val shared = ColumnData("x", IndexedSeq("cityv1 north"))
    val e1 = enc.encodeTable(TableData("a", IndexedSeq(shared, ColumnData("y", IndexedSeq("foo")))))(0)
    val e2 = enc.encodeTable(TableData("b", IndexedSeq(shared, ColumnData("z", IndexedSeq("bar")))))(0)
    assert(e1.toSeq == e2.toSeq)
  }

  test("StarmieEncoder is context-sensitive") {
    val enc = mkStarmie
    val shared = ColumnData("x", IndexedSeq("cityv1 north"))
    val e1 = enc.encodeTable(TableData("a", IndexedSeq(shared, ColumnData("y", IndexedSeq("foo")))))(0)
    val e2 = enc.encodeTable(TableData("b", IndexedSeq(shared, ColumnData("z", IndexedSeq("bar")))))(0)
    assert(e1.toSeq != e2.toSeq)
  }

  test("encoder dimension mismatch is rejected") {
    intercept[IllegalArgumentException] {
      new StarmieEncoder(feat, Linalg.randomMatrix(16, 3, 1))
    }
  }

  private def bits(vs: Seq[Array[Float]]): Seq[Int] =
    vs.flatMap(_.toSeq.map(java.lang.Float.floatToRawIntBits))

  test("encodeTable has the bits of dense W·x for both encoders") {
    val corpus = tables ++ (0 until 6).map { k =>
      TableData(s"u$k", IndexedSeq.tabulate(1 + k % 4)(c =>
        ColumnData(s"c$c", IndexedSeq.tabulate(5)(r => s"v${(k * 7 + c * 3 + r) % 11} w$r"))))
    }
    // a trained W (the trainer's own sparse path) and a random one
    val trained = Contrastive.trainMultiColumn(corpus, feat,
      Contrastive.TrainConfig(embedDim = 16, batchTables = 4, epochs = 2, maxSteps = 4))
    Seq(trained, Linalg.randomMatrix(16, feat.cfg.contextDim, 5)).foreach { w =>
      val enc = new StarmieEncoder(feat, w)
      corpus.foreach { t =>
        val dense = feat.tableInputs(t).map(x => Linalg.normalize(w.map(Linalg.dot(_, x))))
        assert(bits(enc.encodeTable(t)) == bits(dense), t.id)
      }
    }
    val w1 = Linalg.randomMatrix(16, feat.cfg.colDim, 6)
    val single = new SingleColEncoder(feat, w1)
    corpus.foreach { t =>
      val dense = t.columns.map(c => Linalg.normalize(w1.map(Linalg.dot(_, feat.columnFeatures(c)))))
      assert(bits(single.encodeTable(t)) == bits(dense), t.id)
    }
  }

  test("encoders require a finite W") {
    Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity).foreach { v =>
      val ws = Linalg.randomMatrix(16, feat.cfg.contextDim, 1); ws(3)(7) = v
      val wc = Linalg.randomMatrix(16, feat.cfg.colDim, 1); wc(15)(0) = v
      intercept[IllegalArgumentException](new StarmieEncoder(feat, ws))
      intercept[IllegalArgumentException](new SingleColEncoder(feat, wc))
    }
  }
}
