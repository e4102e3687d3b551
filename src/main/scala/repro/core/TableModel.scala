package repro.core

import scala.collection.immutable.ArraySeq

/** A single data-lake column: a name (unused by encoders, as in the paper's
  * fair comparison where column-name features are omitted) and its cell values.
  */
final case class ColumnData(name: String, values: IndexedSeq[String]) {
  lazy val tokens: IndexedSeq[String] = values.flatMap(Tokenizer.tokenize)
  lazy val tokenSet: Set[String]      = tokens.toSet
  /** the cells that parse as numbers ([[Tokenizer.isNumeric]]), parsed, in
    * cell order: the one parse behind every numeric feature of a column.
    * Unboxed, since every lake column keeps its own.
    */
  lazy val numbers: IndexedSeq[Double] =
    values.iterator.filter(Tokenizer.isNumeric).map(_.toDouble).to(ArraySeq)
  lazy val numericFraction: Double =
    if (values.isEmpty) 0.0
    else numbers.size.toDouble / values.size
  def isNumeric: Boolean = numericFraction >= 0.5
}

/** A data-lake table: an id plus an ordered list of columns. */
final case class TableData(id: String, columns: IndexedSeq[ColumnData]) {
  def numCols: Int = columns.size
  def numRows: Int = if (columns.isEmpty) 0 else columns.map(_.values.size).max
}
