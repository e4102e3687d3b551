package repro.bench

import repro.exp.{Experiments, Tables}
import repro.lake.Benchmarks
import repro.lake.LakeGen
import repro.lake.LakeGen.Lake

/** Shared, lazily-built state for the bench suites. The bench JVM runs all
  * suites sequentially (Test/parallelExecution := false), so each lake is
  * generated and each encoder trained exactly once per `bench/test` run.
  */
object BenchContext {

  private def envInt(name: String, default: Int): Int =
    sys.env.get(name).map(_.toInt).getOrElse(default)

  // effectiveness benchmarks (Table 3) — also reused by Tables 4/5/8
  lazy val santosSmall: Experiments.Effectiveness = Experiments.effectiveness(Benchmarks.santosSmall)
  lazy val tusSmall: Experiments.Effectiveness    = Experiments.effectiveness(Benchmarks.tusSmall)
  lazy val tusLarge: Experiments.Effectiveness    = Experiments.effectiveness(Benchmarks.tusLarge)

  lazy val santosSmallEmbeddings: Seq[Experiments.Embedded] =
    Tables.allEmbeddings(santosSmall.lake, santosSmall.models)
  lazy val santosSmallStarmie: Experiments.Embedded = santosSmallEmbeddings.head
  lazy val tusSmallStarmie: Experiments.Embedded =
    Experiments.embedLake(tusSmall.lake, tusSmall.models.starmie)

  // scalability corpus (Tables 6 / Fig 10) — size overridable via env
  lazy val santosLargeProfile = Benchmarks.santosLarge(envInt("REPRO_SANTOS_LARGE", 11090))
  lazy val santosLargeLake: Lake = LakeGen.generate(santosLargeProfile.cfg)
  lazy val santosLargeStarmie: Experiments.Embedded = {
    val models = Experiments.trainModels(santosLargeLake, santosLargeProfile)
    Experiments.embedLake(santosLargeLake, models.starmie)
  }

  // WDC-style sweep (Fig 10b/c analogue)
  def wdcMax: Int = envInt("REPRO_WDC_MAX", 30000)
  lazy val wdcProfile = Benchmarks.wdc(wdcMax)
  lazy val wdcLake: Lake = LakeGen.generate(wdcProfile.cfg)
  lazy val wdcStarmie: Experiments.Embedded = {
    val models = Experiments.trainModels(wdcLake, wdcProfile)
    Experiments.embedLake(wdcLake, models.starmie)
  }
}
