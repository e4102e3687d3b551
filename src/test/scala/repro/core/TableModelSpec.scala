package repro.core

import repro.{Oracle, SparkSpec}

class TableModelSpec extends SparkSpec {

  private val tables = Seq(
    TableData("t1", IndexedSeq(
      ColumnData("a", IndexedSeq("x", "y")),
      ColumnData("b", IndexedSeq("1", "2")))),
    TableData("t2", IndexedSeq(
      ColumnData("c", IndexedSeq("z")))),
  )

  test("toCellDf emits one row per cell") {
    val df = Oracle.toCellDf(spark, tables)
    assert(df.count() == 5)
    assert(df.columns.toSeq == Seq("table_id", "col_idx", "col_name", "row_idx", "value"))
  }

  test("toCellDf cell counts per table match DuckDB aggregation (oracle)") {
    import org.apache.spark.sql.functions._
    val cellDf = Oracle.toCellDf(spark, tables)
    val agg = cellDf.groupBy("table_id").agg(count(lit(1)).as("n_cells"))
    Oracle.assertEquivalent(agg,
      "SELECT table_id, COUNT(*) AS n_cells FROM cells GROUP BY table_id",
      "cells" -> cellDf)
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
