package repro.baselines

import repro.core._
import repro.lake.LakeGen.Lake
import scala.util.Random

/** Sherlock baseline (Hulsebos et al., KDD'19) — a *supervised* semantic
  * type model: a column's embedding is its (softmax-sharpened) predicted
  * distribution over a fixed vocabulary of known semantic types.
  *
  * Simulation (DESIGN.md §2): type prototypes are mean feature vectors of a
  * labelled training sample, labels being *surface* types (Sherlock cannot
  * see table context, so homograph surfaces collapse onto one prototype —
  * its first failure mode). Only `knownFraction` of the surfaces are in the
  * training vocabulary (the paper's "78 types" limitation): columns of
  * unknown types collapse onto their nearest known prototype — its second
  * failure mode.
  */
final class SherlockEncoder(feat: Featurizer,
                            prototypes: IndexedSeq[Array[Float]]) extends ColumnEncoder {
  val name = "sherlock"
  val dim: Int = prototypes.size

  private def predict(x: Array[Float]): Array[Float] = {
    val sims = prototypes.map(p => Linalg.cosine(x, p).toDouble)
    val mx   = sims.max
    val exps = sims.map(s => math.exp((s - mx) / SherlockEncoder.SoftmaxTemp))
    val z    = exps.sum
    Linalg.normalize(exps.map(e => (e / z).toFloat).toArray)
  }

  def encodeTable(t: TableData): IndexedSeq[Array[Float]] =
    t.columns.map(c => predict(SherlockEncoder.features(feat, c)))
}

object SherlockEncoder {

  /** labelled columns sampled per surface type to form its prototype */
  private val SamplesPerType = 20
  /** softmax temperature of the type prediction: low, so it is sharp */
  private val SoftmaxTemp = 0.05
  /** seed of the known-type draw and the column sampling */
  private val Seed = 13L

  /** Sherlock's column featurization: for textual columns, the shared hashed
    * token + stats features; for *numeric* columns, only the distribution
    * statistics — Sherlock's hand-crafted features describe numeric data
    * statistically, not lexically, which is why its accuracy collapses as
    * the fraction of numeric columns grows (paper Figures 9(c), 14, 15;
    * TUS Large MAP 0.744).
    */
  def features(feat: Featurizer, c: ColumnData): Array[Float] = {
    val full = feat.columnFeatures(c)
    if (!c.isNumeric) full
    else {
      val out = new Array[Float](full.length)
      // keep only the stats block (last statDim entries), renormalized
      val off = feat.cfg.hashDim
      var i = off
      while (i < full.length) { out(i) = full(i); i += 1 }
      Linalg.normalize(out)
    }
  }

  /** "Train" Sherlock on the lake: sample labelled columns per surface type,
    * keep a `knownFraction` subset of surfaces as the supervised vocabulary,
    * prototype = mean column-feature vector of that surface's samples.
    */
  def train(lake: Lake, feat: Featurizer, knownFraction: Double): SherlockEncoder = {
    val rnd = new Random(Seed)
    val bySurface = scala.collection.mutable.HashMap[String, scala.collection.mutable.ArrayBuffer[ColumnData]]()
    lake.tables.foreach { t =>
      t.columns.zipWithIndex.foreach { case (c, ci) =>
        lake.colSurfaceType.get((t.id, ci)).foreach { s =>
          bySurface.getOrElseUpdate(s, scala.collection.mutable.ArrayBuffer()) += c
        }
      }
    }
    val surfaces = bySurface.keys.toIndexedSeq.sorted
    val nKnown   = math.max(1, (surfaces.size * knownFraction).round.toInt)
    val known    = rnd.shuffle(surfaces).take(nKnown)
    val protos = known.map { s =>
      val cols  = bySurface(s)
      val picks = (0 until math.min(SamplesPerType, cols.size)).map(i => cols(rnd.nextInt(cols.size)))
      val acc   = new Array[Float](feat.cfg.colDim)
      picks.foreach(c => Linalg.axpy(1.0f, features(feat, c), acc))
      Linalg.normalize(acc)
    }
    new SherlockEncoder(feat, protos)
  }
}
