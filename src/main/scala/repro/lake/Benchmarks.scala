package repro.lake

import LakeGen._

/** Benchmark profiles mirroring Table 2 of the paper at local scale
  * (DESIGN.md §2 documents the scale substitution). Homograph density
  * (`sharedTypesPerTemplate` / `nSharedSurfaces`) and Sherlock's type
  * coverage are per-profile, reflecting the character of each corpus:
  * SANTOS Small is heterogeneous open data (many types, many homographs),
  * the TUS lakes are derived from only 10/32 base tables (few types,
  * mostly covered by a supervised vocabulary).
  */
object Benchmarks {

  final case class Profile(cfg: LakeConfig,
                           k: Int,
                           sherlockKnownFraction: Double,
                           santosKbCoverage: Double,
                           santosAvailable: Boolean)

  /** SANTOS Small: 546 tables from 42 templates (paper: 550 / ~13 GT per
    * query), k = 10, heavy homograph mix.
    */
  val santosSmall: Profile = Profile(
    LakeConfig(name = "santosSmall", nTemplates = 42, derivedPerTemplate = 13,
      arityMin = 5, arityMax = 9, sharedTypesPerTemplate = 3, nSharedSurfaces = 12,
      rowsPerDerived = 40, poolSize = 200, colKeepFraction = 0.85,
      nQueries = 50, noise = 0.06, seed = 101, confusionGroupSize = 4,
      textQualifiers = 15),
    k = 10, sherlockKnownFraction = 0.70, santosKbCoverage = 0.70,
    santosAvailable = true)

  /** TUS Small: 1530 tables from 10 base templates (paper exact), k = 60. */
  val tusSmall: Profile = Profile(
    LakeConfig(name = "tusSmall", nTemplates = 10, derivedPerTemplate = 153,
      arityMin = 10, arityMax = 16, sharedTypesPerTemplate = 3, nSharedSurfaces = 6,
      rowsPerDerived = 25, poolSize = 400, colKeepFraction = 0.4,
      nQueries = 150, noise = 0.12, seed = 102, confusionGroupSize = 5),
    k = 60, sherlockKnownFraction = 1.0, santosKbCoverage = 0.55,
    santosAvailable = true)

  /** TUS Large: 5024 tables from 32 base templates (paper: 5043), k = 60. */
  val tusLarge: Profile = Profile(
    LakeConfig(name = "tusLarge", nTemplates = 32, derivedPerTemplate = 157,
      arityMin = 8, arityMax = 14, sharedTypesPerTemplate = 3, nSharedSurfaces = 8,
      rowsPerDerived = 25, poolSize = 300, colKeepFraction = 0.6,
      nQueries = 100, noise = 0.12, seed = 103, confusionGroupSize = 4,
      textQualifiers = 12),
    k = 60, sherlockKnownFraction = 0.6, santosKbCoverage = 0.7,
    santosAvailable = false) // paper: no annotated intent columns on TUS Large

  /** Default sizes of the two scalability corpora (Table 2, Fig 10): SANTOS
    * Large as in the paper, the WDC-style lake at a local scale.
    */
  val SantosLargeTables = 11090
  val WdcMaxTables = 30000

  /** SANTOS Large: ~11k raw tables for scalability (no effectiveness GT). */
  def santosLarge(nTables: Int): Profile = {
    val derived = math.max(1, nTables / 300)
    Profile(
      LakeConfig(name = "santosLarge", nTemplates = 300, derivedPerTemplate = derived,
        arityMin = 4, arityMax = 8, sharedTypesPerTemplate = 2, nSharedSurfaces = 20,
        rowsPerDerived = 20, poolSize = 120, colKeepFraction = 0.8,
        nQueries = 80, noise = 0.05, seed = 104),
      k = 10, sherlockKnownFraction = 0.7, santosKbCoverage = 0.8,
      santosAvailable = true)
  }

  /** Table 6's SANTOS-Large-style corpus: the paper's lake has 7,675 rows per
    * table on average, and the space overhead of the embeddings is relative
    * to the lake size, so this corpus is row-heavy (600 rows per table).
    */
  val santosLargeMemory: LakeConfig = LakeConfig(name = "santosLargeMem", nTemplates = 100,
    derivedPerTemplate = 20, arityMin = 4, arityMax = 8,
    sharedTypesPerTemplate = 2, nSharedSurfaces = 16,
    rowsPerDerived = 600, poolSize = 200, colKeepFraction = 0.8,
    nQueries = 0, noise = 0.05, seed = 109)

  /** WDC-style lake of tiny web tables (paper: 50M tables, 14 rows avg;
    * we sweep `nTables` up to 1e5 locally).
    */
  def wdc(nTables: Int): Profile = {
    val nTemplates = math.max(50, nTables / 50)
    Profile(
      LakeConfig(name = s"wdc$nTables", nTemplates = nTemplates,
        derivedPerTemplate = math.max(1, nTables / nTemplates),
        arityMin = 3, arityMax = 5, sharedTypesPerTemplate = 1, nSharedSurfaces = 15,
        rowsPerDerived = 14, poolSize = 80, colKeepFraction = 0.9,
        nQueries = 30, noise = 0.03, seed = 105),
      k = 10, sherlockKnownFraction = 0.7, santosKbCoverage = 0.8,
      santosAvailable = true)
  }

  /** Column-clustering corpus (Tables 9/10): ~78 surface types overall,
    * heavy surface sharing so clusters span tables.
    */
  val clustering: Profile = Profile(
    LakeConfig(name = "clustering", nTemplates = 48, derivedPerTemplate = 50,
      arityMin = 5, arityMax = 7, sharedTypesPerTemplate = 2, nSharedSurfaces = 30,
      rowsPerDerived = 20, poolSize = 100, colKeepFraction = 0.9,
      nQueries = 0, noise = 0.03, seed = 106, confusionGroupSize = 4,
      sharedPoolSize = Some(25)),
    k = 10, sherlockKnownFraction = 0.7, santosKbCoverage = 0.8,
    santosAvailable = true)

  val effectiveness: Seq[Profile] = Seq(santosSmall, tusSmall, tusLarge)
}
