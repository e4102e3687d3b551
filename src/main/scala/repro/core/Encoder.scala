package repro.core

/** A column encoder M maps every column of a table to an L2-normalized
  * embedding; cosine (= dot on normalized vectors) is the column
  * unionability score F of §2.1.
  */
trait ColumnEncoder extends Serializable {
  def name: String
  def dim: Int
  /** Embeddings for every column of `t`, in column order, L2-normalized. */
  def encodeTable(t: TableData): IndexedSeq[Array[Float]]
}

/** A linear encoder `z = normalize(W·x)` over one input x per column, of
  * dimension `inDim`. W·x runs over the non-zero entries of x, which needs a
  * finite W to give the dense bits.
  */
sealed abstract class LinearEncoder(w: Array[Array[Float]], inDim: Int) extends ColumnEncoder {
  require(w.nonEmpty && w(0).length == inDim, s"W must be d×$inDim")
  require(Linalg.isFinite(w), "W must be finite")
  val dim: Int = w.length
  /** the encoder inputs of every column of `t`, in column order */
  protected def inputs(t: TableData): IndexedSeq[Array[Float]]
  final def encodeTable(t: TableData): IndexedSeq[Array[Float]] =
    inputs(t).map(x => Linalg.normalize(Linalg.matVecSparse(w, Linalg.sparse(x))))
}

/** Starmie's contextualized multi-column encoder (§3.3): input is
  * [own features ; sibling-context features], projected by the
  * contrastively-trained W and normalized.
  */
final class StarmieEncoder(feat: Featurizer, w: Array[Array[Float]])
    extends LinearEncoder(w, feat.cfg.contextDim) {
  val name = "starmie"
  protected def inputs(t: TableData): IndexedSeq[Array[Float]] = feat.tableInputs(t)
}

/** Starmie without table context (§3.2 / the SingleCol baseline of §5.1.4). */
final class SingleColEncoder(feat: Featurizer, w: Array[Array[Float]])
    extends LinearEncoder(w, feat.cfg.colDim) {
  val name = "singlecol"
  protected def inputs(t: TableData): IndexedSeq[Array[Float]] = t.columns.map(feat.columnFeatures)
}
