package repro.core

import java.util.regex.Pattern

/** Cell-value tokenization shared by every encoder and by Algorithm 2.
  *
  * The paper serializes cell values into sub-word tokens for RoBERTa; our
  * encoders operate on word-level tokens. Normalization is deliberately
  * simple and deterministic: lowercase, split on any non-alphanumeric run.
  */
object Tokenizer {

  // compiled once: String.split/matches compile their pattern on every call
  private val Separator = Pattern.compile("[^0-9a-z]+")
  private val Number    = Pattern.compile("[+-]?\\d+(\\.\\d+)?")

  /** Tokenize a single cell value. Null-safe; never returns null tokens. */
  def tokenize(cell: String): Seq[String] =
    if (cell == null) Seq.empty
    else Separator.split(cell.toLowerCase).iterator.filter(_.nonEmpty).toSeq

  /** True if the cell parses as a number (int or decimal, optional sign). */
  def isNumeric(cell: String): Boolean =
    cell != null && cell.nonEmpty && Number.matcher(cell).matches()

  /** Character-class signature of a cell, used by the D3L format feature:
    * runs of digits → 'd', letters → 'a', other → 's'. E.g. "AZ-8" → "asd".
    */
  def formatSignature(cell: String): String =
    if (cell == null || cell.isEmpty) ""
    else {
      val sb = new StringBuilder
      var last = ' '
      cell.foreach { ch =>
        val cls = if (ch.isDigit) 'd' else if (ch.isLetter) 'a' else 's'
        if (cls != last) { sb.append(cls); last = cls }
      }
      sb.toString
    }
}
