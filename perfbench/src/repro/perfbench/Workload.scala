package repro.perfbench

import repro.lake.Benchmarks
import repro.lake.LakeGen.LakeConfig

/** One benchmark workload: the lake it generates and its primary query mode.
  *
  * @param exactPrimary primary queries run `queryPruning` with no index, and
  *                     ingests go to an HNSW that starts empty and is never
  *                     queried. Otherwise set-up builds an HNSW over ⅔ of
  *                     the lake, the primary queries run `queryWithIndex`
  *                     over it and the ingests add the held-out ⅓ to it.
  * @param setupReps    full set-ups per run; `setup_s` is their median
  */
final case class Workload(name: String, lake: LakeConfig, k: Int,
                          exactPrimary: Boolean, setupReps: Int)

/** Run-size knobs: the full benchmark, or the seconds-long self-test. */
final case class Scale(trainSteps: Int, minSamples: Int, warmSeconds: Double,
                       probeQueries: Int, maxLoopSeconds: Double)

object Workload {
  val names: Seq[String] = Seq("santos-small", "santos-large-ingest")

  val full: Scale = Scale(trainSteps = 100, minSamples = 1000, warmSeconds = 2.0,
                          probeQueries = 8, maxLoopSeconds = 90.0)
  val tiny: Scale = Scale(trainSteps = 10, minSamples = 20, warmSeconds = 0.1,
                          probeQueries = 2, maxLoopSeconds = 10.0)

  def apply(name: String, isTiny: Boolean): Workload = {
    val small = Benchmarks.santosSmall
    val large = Benchmarks.santosLarge(3000)
    val w = name match {
      case "santos-small" =>
        Workload(name, small.cfg, small.k, exactPrimary = true, setupReps = 3)
      case "santos-large-ingest" =>
        Workload(name, large.cfg, large.k, exactPrimary = false, setupReps = 1)
      case other =>
        throw new IllegalArgumentException(
          s"unknown workload '$other' (one of ${names.mkString(", ")})")
    }
    val cfg = if (isTiny) w.lake.copy(nTemplates = 10, derivedPerTemplate = 6, nQueries = 10)
              else w.lake
    w.copy(lake = cfg, setupReps = if (isTiny) 2 else w.setupReps)
  }
}
