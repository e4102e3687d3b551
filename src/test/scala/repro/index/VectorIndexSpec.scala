package repro.index

import org.scalatest.funsuite.AnyFunSuite

/** The input contract every index shares: added and query vectors have the
  * index dimension and are unit-norm or all-zero.
  */
class VectorIndexSpec extends AnyFunSuite {

  private val d    = 4
  private val zero = new Array[Float](d)
  private val unit = Array(0.6f, 0.8f, 0f, 0f)

  private def checkContract(index: VectorIndex): Unit = {
    index.add(0, zero)
    index.add(1, unit)
    assert(index.search(zero, 2).map(_._1).contains(0))
    assert(index.search(unit, 2).map(_._1).contains(1))
    val wrongDim = Seq(Array(0.6f, 0.8f, 0f), Array(0.6f, 0.8f, 0f, 0f, 0f))
    val notUnit  = Seq(Array(1.2f, 1.6f, 0f, 0f), Array(0.3f, 0.4f, 0f, 0f), Array(Float.NaN, 0f, 0f, 0f))
    (wrongDim ++ notUnit).foreach { v =>
      intercept[IllegalArgumentException](index.add(2, v))
      intercept[IllegalArgumentException](index.search(v, 1))
    }
    assert(index.size == 2)
  }

  test("LinearIndex takes only vectors of its dimension that are unit-norm or zero") {
    checkContract(new LinearIndex(d))
  }

  test("SimHashLsh takes only vectors of its dimension that are unit-norm or zero") {
    checkContract(new SimHashLsh(d))
  }

  test("Hnsw takes only vectors of its dimension that are unit-norm or zero") {
    checkContract(new Hnsw(d))
  }
}
