package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class AugmentSpec extends AnyFunSuite {

  private def mkTable: TableData = TableData("t", IndexedSeq(
    ColumnData("state",   IndexedSeq("new york", "california", "florida", "texas")),
    ColumnData("capital", IndexedSeq("albany", "sacramento", "tallahassee", "austin")),
    ColumnData("since",   IndexedSeq("1797", "1854", "1824", "1845")),
    ColumnData("blankish", IndexedSeq("", "nan", "x", "")),
  ))

  private def rnd = new Random(12)

  test("every operator preserves the alignment contract") {
    Augment.byName.foreach { case (name, op) =>
      val v = op(mkTable, rnd)
      assert(v.alignment.size == v.table.numCols, s"$name alignment size")
      v.alignment.foreach(i => assert(i >= 0 && i < mkTable.numCols, s"$name alignment range"))
      assert(v.alignment.distinct.size == v.alignment.size, s"$name alignment unique")
    }
  }

  test("drop_col drops at least one and keeps at least one column") {
    (0 until 20).foreach { s =>
      val v = Augment.dropCol(mkTable, new Random(s))
      assert(v.table.numCols >= 1 && v.table.numCols < 4)
    }
  }

  test("drop_col alignment points at the surviving originals") {
    val v = Augment.dropCol(mkTable, rnd)
    v.table.columns.zip(v.alignment).foreach { case (c, origIdx) =>
      assert(mkTable.columns(origIdx).values == c.values)
    }
  }

  test("drop_col on a single-column table is identity") {
    val t = TableData("one", IndexedSeq(ColumnData("a", IndexedSeq("x"))))
    val v = Augment.dropCol(t, rnd)
    assert(v.table == t && v.alignment == IndexedSeq(0))
  }

  test("registry exposes drop_col, the operator every model trains with") {
    assert(Augment.byName.keySet == Set("drop_col"))
  }
}
