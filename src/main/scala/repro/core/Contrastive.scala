package repro.core

import scala.util.Random

/** SimCLR-style contrastive learning of the column encoder (paper §3,
  * Algorithm 1) with the multi-column aligned-pair loss of Eq. 3.
  *
  * The encoder is `z = normalize(W·x)` (see DESIGN.md §2 for the
  * RoBERTa→linear substitution); the loss is the exact NT-Xent of Eq. 1/2:
  *
  *   ℓ(i,j) = −log [ exp(sim(z_i,z_j)/τ) / Σ_{k≠i,j} exp(sim(z_i,z_k)/τ) ]
  *
  * averaged over the aligned positive pairs, both directions. Gradients are
  * derived analytically in [[step]] and checked numerically in the tests.
  */
object Contrastive {

  final case class TrainConfig(
      embedDim: Int    = 128,
      batchTables: Int = 8,
      epochs: Int      = 12,
      maxSteps: Int    = 1200,
      op: String       = "drop_col", // paper ablation: best on SANTOS Small
      seed: Long       = 42,
  )

  /** NT-Xent temperature τ (paper: fixed to 0.07 empirically) */
  final val Temperature = 0.07
  /** SGD learning rate */
  final val LearningRate = 0.2
  /** L2 pull toward the init W₀ — the analogue of fine-tuning staying close
    * to the pre-trained prior; curbs memorization of in-batch false
    * negatives (same-template tables drawn as "random" negatives).
    */
  final val AnchorWeight = 0.02
  /** input-feature dropout during training (RoBERTa-style regularizer) */
  final val Dropout = 0.3

  /** One SGD step on W for a batch of inputs `xs` (the non-zero entries of
    * each input vector) with `positives`. Returns the batch loss (Eq. 1–3:
    * each pair (i, j) contributes ℓ(i,j) + ℓ(j,i), averaged by 2|P|). W is
    * updated in place. When `w0` is given, an L2 anchor `anchor·‖W−W₀‖²/2`
    * is added to the objective. Each input's one index list drives both the
    * forward W·x and its rank-1 gradient update; for a finite W the step
    * has the bits of the dense computation (DESIGN.md §3).
    */
  def step(w: Array[Array[Float]], xs: IndexedSeq[Linalg.SparseVec],
           positives: Seq[(Int, Int)], tau: Double, lr: Double,
           anchor: Double = 0.0, w0: Array[Array[Float]] = null): Double = {
    if (positives.isEmpty) return 0.0
    val n   = xs.size
    val d   = w.length
    val us  = xs.map(Linalg.matVecSparse(w, _))
    val zs  = us.map(Linalg.normalized)
    val s   = Matching.simMatrix(zs, zs)
    // exp(s_ik / τ), computed once for the denominator and the gradient
    val e   = s.map(_.map(v => math.exp(v / tau)))

    val directed = positives.flatMap { case (i, j) => Seq((i, j), (j, i)) }
    val scale    = 1.0 / directed.size
    // g(i)(j) accumulates ∂L/∂s_ij treating entries as directed
    val g = Array.ofDim[Double](n, n)
    var lossAcc = 0.0
    directed.foreach { case (i, j) =>
      var denom = 0.0
      var k = 0
      while (k < n) {
        if (k != i && k != j) denom += e(i)(k)
        k += 1
      }
      lossAcc += (-s(i)(j) / tau + math.log(denom)) * scale
      g(i)(j) += -scale / tau
      k = 0
      while (k < n) {
        if (k != i && k != j) g(i)(k) += scale / tau * e(i)(k) / denom
        k += 1
      }
    }

    // back-prop: ∂L/∂z_i = Σ_j (g_ij + g_ji) z_j ; through the normalization
    // ∂L/∂u_i = (∂L/∂z_i − (∂L/∂z_i·z_i) z_i) / ‖u_i‖ ; then rank-1 into W,
    // accumulated transposed: gradT(c) is column c of ∂L/∂W, allocated when
    // an input first has a non-zero entry c
    val gradT = new Array[Array[Float]](w(0).length)
    val dz    = new Array[Float](d)
    val du    = new Array[Float](d)
    var i = 0
    while (i < n) {
      java.util.Arrays.fill(dz, 0.0f)
      var j = 0
      while (j < n) {
        val c = (g(i)(j) + g(j)(i)).toFloat
        if (c != 0.0f) Linalg.axpy(c, zs(j), dz)
        j += 1
      }
      val uNorm = math.max(Linalg.norm(us(i)), 1e-8f)
      val proj  = Linalg.dot(dz, zs(i))
      var r = 0
      while (r < d) { du(r) = (dz(r) - proj * zs(i)(r)) / uNorm; r += 1 }
      Linalg.outerAddSparse(gradT, du, xs(i))
      i += 1
    }
    val anchored = w0 != null && anchor > 0
    i = 0
    while (i < d) {
      val wi = w(i)
      var c = 0
      while (c < wi.length) {
        val grad       = if (gradT(c) == null) 0.0f else gradT(c)(i)
        val anchorGrad = if (anchored) anchor * (wi(c) - w0(i)(c)) else 0.0
        wi(c) -= (lr * (grad + anchorGrad)).toFloat
        c += 1
      }
      i += 1
    }
    lossAcc
  }

  /** Per-example inverted dropout of a training input, returned as its
    * non-zero entries. One draw per entry, zero or not, in index order, so
    * the stream is the one a dense mask over `x` would draw.
    */
  private def dropout(x: Array[Float], rnd: Random): Linalg.SparseVec = {
    val scale = (1.0 / (1.0 - Dropout)).toFloat
    val idx = new Array[Int](x.length); val vals = new Array[Float](x.length)
    var n = 0; var i = 0
    while (i < x.length) {
      if (rnd.nextDouble() >= Dropout) {
        val v = x(i) * scale
        if (v != 0.0f) { idx(n) = i; vals(n) = v; n += 1 }
      }
      i += 1
    }
    new Linalg.SparseVec(java.util.Arrays.copyOf(idx, n), java.util.Arrays.copyOf(vals, n))
  }

  /** The SimCLR loop of Algorithm 1, shared by both learners: each epoch
    * shuffles `units`, groups them into batches of `batchSize`, and takes one
    * [[step]] per batch on the `(inputs, positives)` that `batch` builds,
    * until `cfg.epochs` epochs or `cfg.maxSteps` steps. `batch` draws its
    * views and dropout masks from the loop's stream, after that epoch's
    * shuffle. Returns W (embedDim × `inDim`).
    */
  private def train[U](units: IndexedSeq[U], batchSize: Int, inDim: Int, cfg: TrainConfig)(
      batch: (IndexedSeq[U], Random) => (IndexedSeq[Linalg.SparseVec], Seq[(Int, Int)])
  ): Array[Array[Float]] = {
    val rnd = new Random(new Linalg.UnsharedRandom(cfg.seed)) // new Random(seed)'s draws
    val w0  = Linalg.randomMatrix(cfg.embedDim, inDim, cfg.seed + 1)
    val w   = w0.map(_.clone())
    // lazy: an epoch is shuffled only once its first batch is needed, so no
    // draw follows the last step
    Iterator.range(0, cfg.epochs)
      .flatMap(_ => rnd.shuffle(units).grouped(batchSize))
      .take(cfg.maxSteps)
      .foreach { b =>
        val (xs, pos) = batch(b, rnd)
        step(w, xs, pos, Temperature, LearningRate, AnchorWeight, w0)
      }
    w
  }

  /** Multi-column training (paper §3.3): batches are whole tables; the
    * augmentation operator produces an aligned view; positives are the
    * aligned column pairs; every other pair in the batch — unaligned columns
    * of the same table and all columns of other tables — is a negative.
    * Returns the trained weight matrix (embedDim × contextDim).
    */
  def trainMultiColumn(tables: Seq[TableData], feat: Featurizer,
                       cfg: TrainConfig = TrainConfig()): Array[Array[Float]] = {
    val op = Augment.byName(cfg.op)
    train(tables.toIndexedSeq, cfg.batchTables, feat.cfg.contextDim, cfg) { (batch, rnd) =>
      val xs  = scala.collection.mutable.ArrayBuffer[Linalg.SparseVec]()
      val pos = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
      batch.foreach { t =>
        val view    = op(t, rnd)
        val own     = t.columns.map(feat.columnFeatures)
        // a view column that is the original's column object has its features
        val viewOwn = view.table.columns.indices.map { a =>
          val c = view.table.columns(a)
          val o = view.alignment(a)
          if (c eq t.columns(o)) own(o) else feat.columnFeatures(c)
        }
        val oriBase = xs.size
        xs ++= feat.contextualInputs(own).map(dropout(_, rnd))
        val augBase = xs.size
        xs ++= feat.contextualInputs(viewOwn).map(dropout(_, rnd))
        view.alignment.zipWithIndex.foreach { case (origIdx, augIdx) =>
          pos += ((oriBase + origIdx, augBase + augIdx))
        }
      }
      (xs.toIndexedSeq, pos.toSeq)
    }
  }

  /** Single-column training (paper §3.2): batches are individual columns;
    * the augmentation operator is uniform value sampling; every other column
    * in the batch is a negative. Returns embedDim × colDim weights.
    */
  def trainSingleColumn(tables: Seq[TableData], feat: Featurizer,
                        cfg: TrainConfig = TrainConfig()): Array[Array[Float]] =
    train(tables.flatMap(_.columns).toIndexedSeq, cfg.batchTables * 6, feat.cfg.colDim, cfg) {
      (batch, rnd) =>
        val own  = batch.map(c => dropout(feat.columnFeatures(c), rnd))
        val view = batch.map { c =>
          val aug = ColumnData(c.name, rnd.shuffle(c.values).take(math.max(1, c.values.size / 2)))
          dropout(feat.columnFeatures(aug), rnd)
        }
        (own ++ view, batch.indices.map(i => (i, i + batch.size)))
    }
}
