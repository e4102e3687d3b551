package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ContrastiveSpec extends AnyFunSuite {

  private val feat = new Featurizer(FeatConfig(hashDim = 64))

  /** Reference loss (Eq. 1–3) for embeddings `z` and positive index pairs:
    * each pair (i, j) contributes ℓ(i,j) + ℓ(j,i), averaged by 2|P|. The
    * gradient check below differentiates it numerically.
    */
  private def loss(z: IndexedSeq[Array[Float]], positives: Seq[(Int, Int)], tau: Double): Double = {
    if (positives.isEmpty) return 0.0
    val s = Matching.simMatrix(z, z)
    val directed = positives.flatMap { case (i, j) => Seq((i, j), (j, i)) }
    val total = directed.iterator.map { case (i, j) =>
      var denom = 0.0
      var k = 0
      while (k < z.size) {
        if (k != i && k != j) denom += math.exp(s(i)(k) / tau)
        k += 1
      }
      -s(i)(j) / tau + math.log(denom)
    }.sum
    total / directed.size
  }

  private def denseMatVec(w: Array[Array[Float]], x: Array[Float]): Array[Float] =
    w.map(Linalg.dot(_, x))

  /** Reference step: the dense SGD step the sparse [[Contrastive.step]]
    * replaced, W·x and the rank-1 update over every entry of x. The sparse
    * step and the trainers built on it must give its bits.
    */
  private def referenceStep(w: Array[Array[Float]], xs: IndexedSeq[Array[Float]],
                            positives: Seq[(Int, Int)], tau: Double, lr: Double,
                            anchor: Double = 0.0, w0: Array[Array[Float]] = null): Double = {
    if (positives.isEmpty) return 0.0
    val n  = xs.size
    val us = xs.map(denseMatVec(w, _))
    val zs = us.map(Linalg.normalized)
    val s  = Matching.simMatrix(zs, zs)
    val directed = positives.flatMap { case (i, j) => Seq((i, j), (j, i)) }
    val scale    = 1.0 / directed.size
    val g = Array.ofDim[Double](n, n)
    var lossAcc = 0.0
    directed.foreach { case (i, j) =>
      var denom = 0.0
      var k = 0
      while (k < n) {
        if (k != i && k != j) denom += math.exp(s(i)(k) / tau)
        k += 1
      }
      lossAcc += (-s(i)(j) / tau + math.log(denom)) * scale
      g(i)(j) += -scale / tau
      k = 0
      while (k < n) {
        if (k != i && k != j) g(i)(k) += scale / tau * math.exp(s(i)(k) / tau) / denom
        k += 1
      }
    }
    val gradW = Array.ofDim[Float](w.length, w(0).length)
    var i = 0
    while (i < n) {
      val dz = new Array[Float](zs(i).length)
      var j = 0
      while (j < n) {
        val c = (g(i)(j) + g(j)(i)).toFloat
        if (c != 0.0f) Linalg.axpy(c, zs(j), dz)
        j += 1
      }
      val uNorm = math.max(Linalg.norm(us(i)), 1e-8f)
      val proj  = Linalg.dot(dz, zs(i))
      val du    = new Array[Float](dz.length)
      var r = 0
      while (r < dz.length) { du(r) = (dz(r) - proj * zs(i)(r)) / uNorm; r += 1 }
      r = 0
      while (r < du.length) {
        if (du(r) != 0.0f) Linalg.axpy(du(r), xs(i), gradW(r))
        r += 1
      }
      i += 1
    }
    i = 0
    while (i < w.length) {
      var c = 0
      while (c < w(i).length) {
        val anchorGrad =
          if (w0 != null && anchor > 0) anchor * (w(i)(c) - w0(i)(c)) else 0.0
        w(i)(c) -= (lr * (gradW(i)(c) + anchorGrad)).toFloat
        c += 1
      }
      i += 1
    }
    lossAcc
  }

  private def referenceDropout(x: Array[Float], p: Double, rnd: Random): Array[Float] =
    if (p <= 0) x
    else {
      val scale = (1.0 / (1.0 - p)).toFloat
      x.map(v => if (rnd.nextDouble() < p) 0.0f else v * scale)
    }

  /** Reference multi-column trainer: `java.util.Random`, dense dropout, every
    * view featurized from scratch, [[referenceStep]].
    */
  private def referenceTrainMultiColumn(tables: Seq[TableData], feat: Featurizer,
                                        cfg: Contrastive.TrainConfig): Array[Array[Float]] = {
    val rnd = new Random(cfg.seed)
    val w0  = Linalg.randomMatrix(cfg.embedDim, feat.cfg.contextDim, cfg.seed + 1)
    val w   = w0.map(_.clone())
    val op  = Augment.byName(cfg.op)
    var steps = 0
    var ep = 0
    while (ep < cfg.epochs && steps < cfg.maxSteps) {
      rnd.shuffle(tables.toIndexedSeq).grouped(cfg.batchTables).foreach { batch =>
        if (steps < cfg.maxSteps) {
          val xs  = scala.collection.mutable.ArrayBuffer[Array[Float]]()
          val pos = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
          batch.foreach { t =>
            val view    = op(t, rnd)
            val oriBase = xs.size
            xs ++= feat.tableInputs(t).map(referenceDropout(_, Contrastive.Dropout, rnd))
            val augBase = xs.size
            xs ++= feat.tableInputs(view.table).map(referenceDropout(_, Contrastive.Dropout, rnd))
            view.alignment.zipWithIndex.foreach { case (origIdx, augIdx) =>
              pos += ((oriBase + origIdx, augBase + augIdx))
            }
          }
          referenceStep(w, xs.toIndexedSeq, pos.toSeq, Contrastive.Temperature,
                        Contrastive.LearningRate, Contrastive.AnchorWeight, w0)
          steps += 1
        }
      }
      ep += 1
    }
    w
  }

  /** Reference single-column trainer, as [[referenceTrainMultiColumn]]. */
  private def referenceTrainSingleColumn(tables: Seq[TableData], feat: Featurizer,
                                         cfg: Contrastive.TrainConfig): Array[Array[Float]] = {
    val rnd  = new Random(cfg.seed)
    val w0   = Linalg.randomMatrix(cfg.embedDim, feat.cfg.colDim, cfg.seed + 1)
    val w    = w0.map(_.clone())
    val cols = tables.flatMap(_.columns).toIndexedSeq
    var steps = 0
    var ep = 0
    while (ep < cfg.epochs && steps < cfg.maxSteps) {
      rnd.shuffle(cols).grouped(cfg.batchTables * 6).foreach { batch =>
        if (steps < cfg.maxSteps) {
          val n  = batch.size
          val xs = scala.collection.mutable.ArrayBuffer[Array[Float]]()
          batch.foreach(c => xs += referenceDropout(feat.columnFeatures(c), Contrastive.Dropout, rnd))
          batch.foreach { c =>
            val aug = ColumnData(c.name, rnd.shuffle(c.values).take(math.max(1, c.values.size / 2)))
            xs += referenceDropout(feat.columnFeatures(aug), Contrastive.Dropout, rnd)
          }
          referenceStep(w, xs.toIndexedSeq, (0 until n).map(i => (i, i + n)),
                        Contrastive.Temperature, Contrastive.LearningRate, Contrastive.AnchorWeight, w0)
          steps += 1
        }
      }
      ep += 1
    }
    w
  }

  private def bits(w: Array[Array[Float]]): Seq[Int] =
    w.toSeq.flatMap(_.toSeq.map(java.lang.Float.floatToRawIntBits))

  private def unitVecs(n: Int, d: Int, seed: Int): IndexedSeq[Array[Float]] = {
    val rnd = new Random(seed)
    IndexedSeq.fill(n)(Linalg.normalize(Array.fill(d)(rnd.nextGaussian().toFloat)))
  }

  test("loss is lower when positive pairs are aligned") {
    val d = 8
    val a = Linalg.normalize(Array.fill(d)(1f))
    val aCopy = a.clone()
    val far = Linalg.normalize(Array.tabulate(d)(i => if (i == 0) 1f else -1f))
    val alignedLoss  = loss(IndexedSeq(a, aCopy, far, far.map(-_)), Seq((0, 1)), 0.07)
    val misalignLoss = loss(IndexedSeq(a, far, aCopy, far.map(-_)), Seq((0, 1)), 0.07)
    assert(alignedLoss < misalignLoss)
  }

  test("loss with no positives is zero") {
    assert(loss(unitVecs(4, 8, 1), Seq.empty, 0.07) == 0.0)
    val w = Linalg.randomMatrix(4, 8, 2)
    val before = w.map(_.clone())
    assert(Contrastive.step(w, unitVecs(4, 8, 1).map(Linalg.sparse), Seq.empty, 0.07, 0.2) == 0.0)
    assert(w.indices.forall(r => w(r).sameElements(before(r))), "no positives, no update")
  }

  test("analytic gradient matches numeric gradient") {
    val rnd = new Random(5)
    val inDim = 6; val outDim = 4
    val xs = IndexedSeq.fill(6)(Array.fill(inDim)(rnd.nextGaussian().toFloat))
    val positives = Seq((0, 3), (1, 4), (2, 5))
    val tau = 0.2

    def lossAt(w: Array[Array[Float]]): Double = {
      val zs = xs.map(x => Linalg.normalized(denseMatVec(w, x)))
      loss(zs, positives, tau)
    }

    val w0 = Linalg.randomMatrix(outDim, inDim, 7)
    // analytic: one step with lr recovers gradient via the W update
    val wStep = w0.map(_.clone())
    val lr = 1.0
    val stepLoss = Contrastive.step(wStep, xs.map(Linalg.sparse), positives, tau, lr)
    assert(math.abs(stepLoss - lossAt(w0)) < 1e-9, s"step loss $stepLoss vs ${lossAt(w0)}")
    // check a few coordinates against central finite differences
    val eps = 1e-3f
    for (r <- 0 until outDim; c <- 0 until inDim if (r * inDim + c) % 5 == 0) {
      val wPlus = w0.map(_.clone());  wPlus(r)(c) += eps
      val wMinus = w0.map(_.clone()); wMinus(r)(c) -= eps
      val numeric  = (lossAt(wPlus) - lossAt(wMinus)) / (2 * eps)
      val analytic = (w0(r)(c) - wStep(r)(c)) / lr // W -= lr*grad
      assert(math.abs(numeric - analytic) < 5e-2,
        s"grad mismatch at ($r,$c): numeric=$numeric analytic=$analytic")
    }
  }

  test("step reduces the loss on a fixed batch") {
    val rnd = new Random(11)
    val inDim = 10
    val xs = IndexedSeq.fill(8)(Array.fill(inDim)(rnd.nextGaussian().toFloat))
    val positives = Seq((0, 4), (1, 5), (2, 6), (3, 7))
    val w = Linalg.randomMatrix(6, inDim, 3)
    def curLoss = {
      val zs = xs.map(x => Linalg.normalized(denseMatVec(w, x)))
      loss(zs, positives, 0.07)
    }
    val before = curLoss
    (0 until 30).foreach(_ => Contrastive.step(w, xs.map(Linalg.sparse), positives, 0.07, 0.2))
    assert(curLoss < before)
  }

  /** tiny two-template corpus with a shared (homograph) column pool */
  private def homographCorpus(seed: Int): Seq[TableData] = {
    val rnd = new Random(seed)
    def city(i: Int)   = s"cityv$i north"
    def travel(i: Int) = s"travelv$i old"
    def bird(i: Int)   = s"birdv$i new"
    def year(i: Int)   = (1900 + i % 60).toString
    (0 until 20).map { k =>
      if (k % 2 == 0)
        TableData(s"travel$k", IndexedSeq(
          ColumnData("dest", IndexedSeq.fill(12)(city(rnd.nextInt(30)))),
          ColumnData("purpose", IndexedSeq.fill(12)(travel(rnd.nextInt(30)))),
          ColumnData("year", IndexedSeq.fill(12)(year(rnd.nextInt(60))))))
      else
        TableData(s"bird$k", IndexedSeq(
          ColumnData("loc", IndexedSeq.fill(12)(city(rnd.nextInt(30)))),
          ColumnData("species", IndexedSeq.fill(12)(bird(rnd.nextInt(30)))),
          ColumnData("year", IndexedSeq.fill(12)(year(rnd.nextInt(60))))))
    }
  }

  test("multi-column training separates homograph columns by context") {
    val corpus = homographCorpus(17)
    val w = Contrastive.trainMultiColumn(corpus, feat,
      Contrastive.TrainConfig(embedDim = 32, batchTables = 6, epochs = 30, maxSteps = 120, seed = 9))
    val enc = new StarmieEncoder(feat, w)
    val travelA = enc.encodeTable(corpus(0))(0)  // city col in travel context
    val travelB = enc.encodeTable(corpus(2))(0)
    val birdA   = enc.encodeTable(corpus(1))(0)  // city col in bird context
    val sameCtx  = Linalg.dot(travelA, travelB)
    val crossCtx = Linalg.dot(travelA, birdA)
    assert(sameCtx > crossCtx,
      s"contextualized embeddings should separate homographs: same=$sameCtx cross=$crossCtx")
  }

  test("single-column training keeps same-pool columns together") {
    val corpus = homographCorpus(23)
    val w = Contrastive.trainSingleColumn(corpus, feat,
      Contrastive.TrainConfig(embedDim = 32, epochs = 20, maxSteps = 80, seed = 4))
    val enc = new SingleColEncoder(feat, w)
    val purposeA = enc.encodeTable(corpus(0))(1) // travel pool
    val purposeB = enc.encodeTable(corpus(2))(1) // travel pool
    val species  = enc.encodeTable(corpus(1))(1) // bird pool
    assert(Linalg.dot(purposeA, purposeB) > Linalg.dot(purposeA, species))
  }

  test("training is deterministic in the seed") {
    val corpus = homographCorpus(3)
    val cfg = Contrastive.TrainConfig(embedDim = 8, epochs = 2, maxSteps = 10)
    val w1 = Contrastive.trainMultiColumn(corpus, feat, cfg)
    val w2 = Contrastive.trainMultiColumn(corpus, feat, cfg)
    assert(w1.flatten.toSeq == w2.flatten.toSeq)
  }

  test("step gives the reference step's bits, with an anchor and sparse inputs") {
    val rnd = new Random(13)
    val inDim = 40
    // about 3/4 of the entries are zero, some of them −0.0
    def input() = Array.fill(inDim)(rnd.nextInt(8) match {
      case 0 | 1 | 2 | 3 => 0.0f
      case 4 | 5         => -0.0f
      case _             => rnd.nextGaussian().toFloat
    })
    val xs = IndexedSeq.fill(10)(input())
    val positives = Seq((0, 5), (1, 6), (2, 7), (3, 8), (4, 9))
    val w0 = Linalg.randomMatrix(7, inDim, 3)
    val ws = w0.map(_.clone()); val wd = w0.map(_.clone())
    (0 until 5).foreach { _ =>
      val ls = Contrastive.step(ws, xs.map(Linalg.sparse), positives, 0.07, 0.2, 0.02, w0)
      val ld = referenceStep(wd, xs, positives, 0.07, 0.2, 0.02, w0)
      assert(java.lang.Double.doubleToRawLongBits(ls) == java.lang.Double.doubleToRawLongBits(ld))
    }
    assert(bits(ws) == bits(wd))
  }

  test("trainMultiColumn gives the reference trainer's W bit for bit") {
    val corpus = homographCorpus(29)
    // drop_col and shuffle_col views share column objects with the original
    // (features reused), drop_cell views copy every column
    Seq("drop_col", "drop_cell", "shuffle_col").foreach { op =>
      val cfg = Contrastive.TrainConfig(embedDim = 12, batchTables = 4, epochs = 3, maxSteps = 12,
                                        op = op, seed = 6)
      assert(bits(Contrastive.trainMultiColumn(corpus, feat, cfg)) ==
               bits(referenceTrainMultiColumn(corpus, feat, cfg)), op)
    }
  }

  test("trainSingleColumn gives the reference trainer's W bit for bit") {
    val corpus = homographCorpus(31)
    val cfg = Contrastive.TrainConfig(embedDim = 12, batchTables = 3, epochs = 3, maxSteps = 10, seed = 8)
    assert(bits(Contrastive.trainSingleColumn(corpus, feat, cfg)) ==
             bits(referenceTrainSingleColumn(corpus, feat, cfg)))
  }

  test("UnsharedRandom draws java.util.Random's stream") {
    val seeds = (-50L to 50L) ++ Seq(Long.MinValue, Long.MaxValue, 0x5DEECE66DL, 42L << 40)
    seeds.foreach { seed =>
      val a = new Random(new Linalg.UnsharedRandom(seed))
      val b = new Random(new java.util.Random(seed))
      (0 until 50).foreach { i =>
        val bound = Seq(1, 2, 7, 16, 1000, Int.MaxValue)(i % 6)
        assert(a.nextInt(bound) == b.nextInt(bound), s"seed $seed nextInt($bound)")
        assert(a.nextDouble() == b.nextDouble(), s"seed $seed nextDouble")
        assert(a.nextGaussian() == b.nextGaussian(), s"seed $seed nextGaussian")
      }
      assert(a.shuffle((0 until 40).toIndexedSeq) == b.shuffle((0 until 40).toIndexedSeq), s"seed $seed")
      assert(a.nextLong() == b.nextLong(), s"seed $seed nextLong")
      a.setSeed(seed + 1); b.setSeed(seed + 1)
      assert(a.nextGaussian() == b.nextGaussian() && a.nextInt() == b.nextInt(), s"seed $seed setSeed")
    }
  }
}
