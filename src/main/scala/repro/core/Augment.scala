package repro.core

import scala.util.Random

/** Table-level data augmentation (paper Table 1 + Appendix B.1).
  *
  * An operator returns the augmented view together with the column alignment
  * `augIdx -> origIdx`: in the multi-column contrastive setting the aligned
  * pairs form the positives of Eq. 3 (Figure 5 of the paper). Every model here
  * trains with `drop_col`, the one operator defined; DESIGN.md §2 covers the
  * other ten.
  */
object Augment {

  /** Augmented view of a table plus the alignment of its columns to the
    * columns of the original table.
    */
  final case class View(table: TableData, alignment: IndexedSeq[Int])

  type Op = (TableData, Random) => View

  /** drop_col — drop a random non-empty subset of columns (at most half,
    * always keeping at least one column). The paper's ablation found this the
    * best operator on SANTOS Small.
    */
  def dropCol(t: TableData, rnd: Random): View = {
    if (t.numCols <= 1) return View(t, t.columns.indices)
    val nDrop = 1 + rnd.nextInt(math.max(1, t.numCols / 2))
    val drop  = rnd.shuffle(t.columns.indices.toIndexedSeq).take(nDrop).toSet
    val keep  = t.columns.indices.filterNot(drop.contains).toIndexedSeq
    View(t.copy(columns = keep.map(t.columns)), keep)
  }

  /** Operator registry keyed by the paper's operator names. */
  val byName: Map[String, Op] = Map("drop_col" -> (dropCol _))
}
