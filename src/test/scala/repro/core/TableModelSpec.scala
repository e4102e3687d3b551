package repro.core

import repro.{Oracle, SparkSpec}

class TableModelSpec extends SparkSpec {

  private val tables = Seq(
    TableData("t1", IndexedSeq(
      ColumnData("a", IndexedSeq("x", "y")),
      ColumnData("b", IndexedSeq("1", "2")))),
    TableData("t2", IndexedSeq(
      ColumnData("c", IndexedSeq("z")))),
    // columns of different lengths: numRows is the longest, not the first
    TableData("t3", IndexedSeq(
      ColumnData("d", IndexedSeq("p")),
      ColumnData("e", IndexedSeq("q", "r", "s")))),
  )

  test("toCellDf emits one row per cell") {
    val df = Oracle.toCellDf(spark, tables)
    assert(df.count() == 9)
    assert(df.columns.toSeq == Seq("table_id", "col_idx", "col_name", "row_idx", "value"))
  }

  test("numCols and numRows per table match DuckDB over the cell view (oracle)") {
    import spark.implicits._
    Oracle.assertEquivalent(
      tables.map(t => (t.id, t.numCols, t.numRows)).toDF("table_id", "n_cols", "n_rows"),
      """SELECT table_id, COUNT(*) AS n_cols, MAX(n) AS n_rows
        |FROM (SELECT table_id, col_idx, COUNT(*) AS n FROM cells GROUP BY table_id, col_idx)
        |GROUP BY table_id""".stripMargin,
      "cells" -> Oracle.toCellDf(spark, tables))
  }

  /** Rebuilds the corpus from its cell-level view, ordering columns by
    * col_idx and cells by row_idx: the inverse of [[Oracle.toCellDf]].
    */
  private def fromCellDf(df: org.apache.spark.sql.DataFrame): Seq[TableData] =
    df.select("table_id", "col_idx", "col_name", "row_idx", "value")
      .collect()
      .groupBy(_.getString(0))
      .toSeq
      .sortBy(_._1)
      .map { case (tid, rows) =>
        val cols = rows.groupBy(_.getInt(1)).toSeq.sortBy(_._1).map { case (_, cells) =>
          ColumnData(cells.head.getString(2),
            cells.sortBy(_.getInt(3)).map(_.getString(4)).toIndexedSeq)
        }
        TableData(tid, cols.toIndexedSeq)
      }

  test("fromCellDf round-trips the corpus") {
    val back = fromCellDf(Oracle.toCellDf(spark, tables))
    assert(back.sortBy(_.id) == tables.sortBy(_.id))
  }

  test("ColumnData numeric detection") {
    assert(ColumnData("n", IndexedSeq("1", "2", "x")).isNumeric)
    assert(!ColumnData("n", IndexedSeq("a", "b", "3")).isNumeric)
    // numbers: the numeric cells parsed, in cell order; numericFraction counts them
    val c = ColumnData("n", IndexedSeq("-3.5", "x", null, "+7", "1.2.3", "0"))
    assert(c.numbers == Seq(-3.5, 7.0, 0.0) && c.numericFraction == 0.5)
  }

  test("TableData numRows is the max column length") {
    val t = TableData("t", IndexedSeq(
      ColumnData("a", IndexedSeq("1")),
      ColumnData("b", IndexedSeq("1", "2"))))
    assert(t.numRows == 2 && t.numCols == 2)
  }
}
