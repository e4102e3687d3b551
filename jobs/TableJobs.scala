package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.{Experiments, Tables}
import repro.exp.Experiments.Effectiveness
import repro.lake.Benchmarks

/** spark-submit entrypoints, one per paper table / figure. Each calls the
  * table's driver in repro.exp, as its bench suite does, and prints it with
  * the table's renderer. Only Table 7 uses Spark, for MLlib GBT.
  *
  *   spark-submit --class repro.jobs.Table3Effectiveness repro.jar
  */
object Table2Stats {
  def main(args: Array[String]): Unit =
    println(Tables.renderT2(Tables.table2(Benchmarks.SantosLargeTables, Benchmarks.WdcMaxTables)))
}

object Table3Effectiveness {
  def main(args: Array[String]): Unit =
    println(Tables.renderT3(Benchmarks.effectiveness.map(new Effectiveness(_))))
}

object Table4NegClasses {
  def main(args: Array[String]): Unit =
    println(Tables.renderT4(Experiments.negativeClasses(new Effectiveness(Benchmarks.tusSmall).lake)))
}

object Table5DesignChoices {
  def main(args: Array[String]): Unit =
    println(Tables.renderT58(Tables.table5(new Effectiveness(Benchmarks.santosSmall))))
}

object Table6Memory {
  def main(args: Array[String]): Unit = {
    val (lake, rows) = Experiments.memoryOverhead()
    println(Tables.renderT6(lake, rows))
  }
}

object Table7MlDiscovery {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).appName("table7").getOrCreate()
    try {
      val res = Tables.table7(spark)
      println(Tables.renderT7(res))
      println()
      println(Tables.renderT11(res))
    } finally spark.stop()
  }
}

object Table8FullEfficiency {
  def main(args: Array[String]): Unit =
    println(Tables.renderT58(Tables.table8(new Effectiveness(Benchmarks.santosSmall))))
}

object Table10Clustering {
  def main(args: Array[String]): Unit = {
    val res = Tables.table10()
    println(Tables.renderT10(res.rows))
    println(Tables.renderT9(res.lake, res.starmie))
  }
}

object Fig10Scalability {
  def main(args: Array[String]): Unit = {
    val (santosLarge, wdc) = Experiments.scalability(Benchmarks.SantosLargeTables, Benchmarks.WdcMaxTables)
    println(Tables.renderFig10(santosLarge))
    println()
    println(Tables.renderFig10(wdc))
  }
}
