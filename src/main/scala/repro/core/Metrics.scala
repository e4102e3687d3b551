package repro.core

/** Effectiveness metrics used throughout the evaluation (§5.1.3):
  * MAP@k / P@k / R@k over ranked table lists, plus the IDEAL recall bound
  * and cluster purity for the column-clustering case study.
  */
object Metrics {

  /** Average precision at k, normalized by min(k, |relevant|) as in the
    * table-union-search literature (Nargesian et al., SANTOS).
    */
  def apAtK(ranked: Seq[String], relevant: Set[String], k: Int): Double = {
    if (relevant.isEmpty) return 0.0
    var hits = 0
    var sumPrec = 0.0
    ranked.take(k).zipWithIndex.foreach { case (id, i) =>
      if (relevant.contains(id)) {
        hits += 1
        sumPrec += hits.toDouble / (i + 1)
      }
    }
    sumPrec / math.min(k, relevant.size)
  }

  def precisionAtK(ranked: Seq[String], relevant: Set[String], k: Int): Double =
    if (k == 0) 0.0
    else ranked.take(k).count(relevant.contains).toDouble / math.min(k, ranked.take(k).size.max(1))

  def recallAtK(ranked: Seq[String], relevant: Set[String], k: Int): Double =
    if (relevant.isEmpty) 0.0
    else ranked.take(k).count(relevant.contains).toDouble / relevant.size

  /** Maximum achievable R@k: min(k, |relevant|) / |relevant|. */
  def idealRecallAtK(relevant: Set[String], k: Int): Double =
    if (relevant.isEmpty) 0.0
    else math.min(k, relevant.size).toDouble / relevant.size

  /** Mean of a per-query metric over all queries. */
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Cluster purity: fraction of items whose ground-truth label equals the
    * majority label of their cluster (§5.5).
    */
  def purity(clusters: Seq[Seq[String]], labelOf: String => String): Double = {
    val total = clusters.iterator.map(_.size).sum
    if (total == 0) return 0.0
    val agree = clusters.iterator.map { c =>
      c.groupBy(labelOf).valuesIterator.map(_.size).max
    }.sum
    agree.toDouble / total
  }
}
