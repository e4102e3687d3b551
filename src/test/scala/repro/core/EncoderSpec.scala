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
}
