package repro.perfbench

/** Benchmark entry point (see perfbench/README.md):
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        [--tiny] [--trace-file <path>] [--git-sha <sha>] [--source-sha <sha>]
  *
  * Prints an `{"env": …}` line, then, as the last line, the result object
  * `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero, without
  * a result, if set-up fails.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val opts = parse(argv)
    def opt(name: String): String =
      opts.getOrElse(name, throw new IllegalArgumentException(s"missing --$name"))
    val seed    = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace   = opt("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val tiny  = opts.contains("tiny")
    val w     = Workload(opt("workload"), tiny)
    val scale = if (tiny) Workload.tiny else Workload.full

    val b = new Bench(w, scale, seed, seconds, trace)
    b.run()
    b.check()
    val metrics = if (trace) b.perLayer else b.endToEnd
    if (trace) opts.get("trace-file").foreach(p => b.tracer.write(java.nio.file.Paths.get(p)))

    val rt = Runtime.getRuntime
    val median = (f: b.Stages => Double) => Bench.median(b.stages.map(f).toArray)
    val env = Seq(
      "workload"       -> w.name,
      "seed"           -> seed,
      "trace"          -> trace,
      "tiny"           -> tiny,
      "nproc"          -> rt.availableProcessors(),
      "java_version"   -> System.getProperty("java.version"),
      "java_vm"        -> System.getProperty("java.vm.name"),
      "xmx_mb"         -> rt.maxMemory() / (1024 * 1024),
      "git_sha"        -> opts.getOrElse("git-sha", "unknown"),
      "source_sha256"  -> opts.getOrElse("source-sha", "unknown"),
      "lake" -> Seq(
        "name"       -> w.lake.name,
        "generate_s" -> b.generateS,
        "tables"     -> b.lake.tables.size,
        "columns"    -> b.lake.totalColumns),
      "k"              -> w.k,
      "tau"            -> repro.exp.Experiments.DefaultTau,
      "probe"          -> 64,
      "train_steps"    -> scale.trainSteps,
      "setup_reps"     -> w.setupReps,
      "setup_stage_s" -> Seq(
        "train" -> median(_.trainS), "embed" -> median(_.embedS),
        "lsh_build" -> median(_.lshS), "hnsw_build" -> median(_.hnswS)),
      "samples" -> Seq(
        "query" -> b.queries.size, "lsh_query" -> b.lshQs.size, "ingest" -> b.ingests.size),
      "tail_ms" -> Seq("query" -> b.queries, "lsh_query" -> b.lshQs, "ingest" -> b.ingests).map {
        case (op, recs) =>
          val ms = recs.map(_.nanos / 1e6).toArray
          op -> Seq("p90" -> Bench.quantile(ms, 0.9), "p95" -> Bench.quantile(ms, 0.95),
                    "p99" -> Bench.quantile(ms, 0.99))
      },
      "ingest_resets"  -> b.target.resets,
      "loop_s"         -> b.loopS,
      "ranked_digest"  -> b.rankedDigest,
    )
    println(Json.obj(Seq("env" -> env)))

    val finite = metrics.forall { case (_, v) => !v.isNaN && !v.isInfinite }
    val failed = b.failed
    println(Json.obj(Seq(
      "correct"   -> (failed == 0 && finite),
      "attempted" -> b.attempted,
      "failed"    -> failed,
      "metrics"   -> metrics.map { case (name, v) =>
        name -> Seq("value" -> v, "unit" -> Units.of(name)) },
    )))
  }

  private def parse(argv: Array[String]): Map[String, String] = {
    val out = Map.newBuilder[String, String]
    var i = 0
    while (i < argv.length) {
      val a = argv(i)
      require(a.startsWith("--"), s"unexpected argument '$a'")
      if (a == "--tiny") { out += "tiny" -> "1"; i += 1 }
      else {
        require(i + 1 < argv.length, s"$a needs a value")
        out += a.drop(2) -> argv(i + 1)
        i += 2
      }
    }
    out.result()
  }
}

/** Metric units, keyed by the suffix of the metric name. */
object Units {
  def of(name: String): String =
    if (name.endsWith("_per_s")) "1/s"
    else if (name.endsWith("_ms")) "ms"
    else if (name.endsWith("_us")) "us"
    else if (name.endsWith("_s")) "s"
    else if (name.endsWith("_mb")) "MB"
    else if (name.endsWith("bytes") || name.contains("bytes_per")) "bytes"
    else if (name.endsWith("_per_query")) "count"
    else "ratio"
}

/** Minimal JSON writer for the result lines. */
object Json {
  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  private def value(v: Any): String = v match {
    case null                   => "null"
    case s: String              => str(s)
    case b: Boolean             => b.toString
    case d: Double              => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                 => n.toString
    case n: Long                => n.toString
    case fs: Seq[(String, Any)] @unchecked => obj(fs)
    case other                  => str(other.toString)
  }

  private def str(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
