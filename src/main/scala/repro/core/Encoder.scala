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

/** Starmie's contextualized multi-column encoder (§3.3): input is
  * [own features ; sibling-context features], projected by the
  * contrastively-trained W and normalized. W·x runs over the non-zero
  * entries of x, which needs a finite W to give the dense bits.
  */
final class StarmieEncoder(feat: Featurizer, w: Array[Array[Float]])
    extends ColumnEncoder {
  require(w.nonEmpty && w(0).length == feat.cfg.contextDim,
    s"W must be d×${feat.cfg.contextDim}")
  require(Linalg.isFinite(w), "W must be finite")
  val name = "starmie"
  val dim: Int = w.length
  def encodeTable(t: TableData): IndexedSeq[Array[Float]] =
    feat.tableInputs(t).map(x => Linalg.normalize(Linalg.matVecSparse(w, Linalg.sparse(x))))
}

/** Starmie without table context (§3.2 / the SingleCol baseline of §5.1.4). */
final class SingleColEncoder(feat: Featurizer, w: Array[Array[Float]])
    extends ColumnEncoder {
  require(w.nonEmpty && w(0).length == feat.cfg.colDim,
    s"W must be d×${feat.cfg.colDim}")
  require(Linalg.isFinite(w), "W must be finite")
  val name = "singlecol"
  val dim: Int = w.length
  def encodeTable(t: TableData): IndexedSeq[Array[Float]] =
    t.columns.map(c => Linalg.normalize(Linalg.matVecSparse(w, Linalg.sparse(feat.columnFeatures(c)))))
}
