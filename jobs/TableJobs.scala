package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.{Experiments, Tables}
import repro.lake.{Benchmarks, LakeGen}

/** spark-submit entrypoints, one per paper table / figure. Each wraps the
  * same experiment functions the bench suites assert on (repro.exp.Experiments
  * and repro.exp.Tables). Only Table 7 uses Spark, for MLlib GBT.
  *
  *   spark-submit --class repro.jobs.Table3Effectiveness repro.jar
  */
object JobUtil {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

object Table2Stats {
  def main(args: Array[String]): Unit = {
    val profiles = Benchmarks.effectiveness :+ Benchmarks.santosLarge() :+ Benchmarks.wdc(30000)
    println(Tables.renderT2(Tables.table2(profiles)))
  }
}

object Table3Effectiveness {
  def main(args: Array[String]): Unit =
    println(Tables.renderT3(Benchmarks.effectiveness.map(Experiments.effectiveness(_))))
}

object Table4NegClasses {
  def main(args: Array[String]): Unit = {
    val res = Experiments.effectiveness(Benchmarks.tusSmall)
    println(Tables.renderT4(Experiments.negativeClasses(res.lake, res.models.feat)))
  }
}

object Table5DesignChoices {
  def main(args: Array[String]): Unit = {
    val res = Experiments.effectiveness(Benchmarks.santosSmall)
    val emb = Experiments.embedLake(res.lake, res.models.starmie)
    println(Tables.renderT58(Tables.table58(res.lake, Seq(emb), res.profile.k)))
  }
}

object Table6Memory {
  def main(args: Array[String]): Unit = {
    val profile = Benchmarks.santosLarge()
    val lake    = LakeGen.generate(profile.cfg)
    val models  = Experiments.trainModels(lake, profile)
    val emb     = Experiments.embedLake(lake, models.starmie)
    println(Tables.renderT6(lake.sizeBytes / 1e6, Experiments.memoryOverhead(lake, emb)))
  }
}

object Table7MlDiscovery {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table7")
    try {
      val res = Tables.table7(spark)
      println(Tables.renderT7(res))
      println()
      println(Tables.renderT11(res))
    } finally spark.stop()
  }
}

object Table8FullEfficiency {
  def main(args: Array[String]): Unit = {
    val res  = Experiments.effectiveness(Benchmarks.santosSmall)
    val embs = Tables.allEmbeddings(res.lake, res.models)
    println(Tables.renderT58(Tables.table58(res.lake, embs, res.profile.k)))
  }
}

object Table10Clustering {
  def main(args: Array[String]): Unit = {
    val profile = Benchmarks.clustering
    val lake    = LakeGen.generate(profile.cfg)
    val models  = Experiments.trainModels(lake, profile)
    val target  = math.max(lake.colContextualType.values.toSet.size,
                           lake.totalColumns / 5)
    val (rows, results) = Tables.table10(lake,
      Seq(models.starmie, models.sato, models.sherlock, models.singleCol), target)
    println(Tables.renderT10(rows))
    println(Tables.renderT9(lake, results("starmie")))
  }
}

object Fig10Scalability {
  def main(args: Array[String]): Unit = {
    val profile = Benchmarks.santosLarge()
    val lake    = LakeGen.generate(profile.cfg)
    val models  = Experiments.trainModels(lake, profile)
    val emb     = Experiments.embedLake(lake, models.starmie)
    val sizes   = Seq(1000, 3000, lake.tables.size).distinct
    println(Tables.renderFig10(Experiments.scalability(lake, emb, 10, sizes)))
  }
}
