package repro.bench

import repro.exp.Experiments.Effectiveness
import repro.lake.Benchmarks

/** What the bench suites share. The bench JVM runs all suites sequentially
  * (Test/parallelExecution := false), so each effectiveness lake is generated
  * and its models trained exactly once per `bench/test` run.
  */
object BenchContext {

  private def envInt(name: String, default: Int): Int =
    sys.env.get(name).map(_.toInt).getOrElse(default)

  // Table 3's benchmarks, whose lakes and models Tables 4, 5 and 8 reuse
  val santosSmall = new Effectiveness(Benchmarks.santosSmall)
  val tusSmall    = new Effectiveness(Benchmarks.tusSmall)
  val tusLarge    = new Effectiveness(Benchmarks.tusLarge)

  // sizes of the scalability corpora (Table 2, Fig 10)
  val santosLargeTables: Int = envInt("REPRO_SANTOS_LARGE", Benchmarks.SantosLargeTables)
  val wdcMaxTables: Int      = envInt("REPRO_WDC_MAX", Benchmarks.WdcMaxTables)
}
