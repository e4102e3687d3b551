package repro.perfbench

import repro.index.VectorIndex
import scala.collection.mutable

/** In-memory span recorder for the traced run. A span is (name, op, parent,
  * start, end); `op` numbers the timed-loop operation the span belongs to
  * (-1 outside the loop) and `parent` is the enclosing span, so a layer's
  * self time is its duration minus its children's. Spans live in primitive
  * buffers and are written out once, when the benchmark ends.
  */
final class Tracer {
  /** spans are recorded only while enabled */
  var enabled = false
  /** operation that new spans are attributed to */
  var op = -1

  private val names   = mutable.ArrayBuffer[String]()
  private val nameIds = mutable.HashMap[String, Int]()
  private var n       = 0
  private var nameOf  = new Array[Int](1 << 14)
  private var opOf    = new Array[Int](1 << 14)
  private var parent  = new Array[Int](1 << 14)
  private var start   = new Array[Long](1 << 14)
  private var end     = new Array[Long](1 << 14)
  private var current = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = open(name)
      try body finally close(id)
    }

  private def open(name: String): Int = {
    if (n == start.length) grow()
    val id = n
    n += 1
    nameOf(id) = nameIds.getOrElseUpdate(name, { names += name; names.size - 1 })
    opOf(id) = op
    parent(id) = current
    current = id
    start(id) = System.nanoTime()
    id
  }

  private def close(id: Int): Unit = {
    end(id) = System.nanoTime()
    current = parent(id)
  }

  private def grow(): Unit = {
    val cap = start.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    opOf   = java.util.Arrays.copyOf(opOf, cap)
    parent = java.util.Arrays.copyOf(parent, cap)
    start  = java.util.Arrays.copyOf(start, cap)
    end    = java.util.Arrays.copyOf(end, cap)
  }

  /** durations (ns) of every span with this name */
  def durations(name: String): Array[Long] = nameIds.get(name) match {
    case None => Array.emptyLongArray
    case Some(k) =>
      val out = mutable.ArrayBuilder.make[Long]
      var i = 0
      while (i < n) { if (nameOf(i) == k) out += end(i) - start(i); i += 1 }
      out.result()
  }

  /** (name, count, total ns, self ns) per span name */
  def summary: Seq[(String, Int, Long, Long)] = {
    val count = new Array[Int](names.size)
    val total = new Array[Long](names.size)
    val self  = new Array[Long](names.size)
    var i = 0
    while (i < n) {
      val d = end(i) - start(i)
      count(nameOf(i)) += 1
      total(nameOf(i)) += d
      self(nameOf(i)) += d
      if (parent(i) >= 0) self(nameOf(parent(i))) -= d
      i += 1
    }
    names.indices.map(k => (names(k), count(k), total(k), self(k)))
  }

  /** Write the timed loop's spans (op ≥ 0) as TSV (id, op, parent, name,
    * start, end), then a per-name summary of every span, probes included.
    */
  def write(path: java.nio.file.Path): Unit = {
    Option(path.getParent).foreach(java.nio.file.Files.createDirectories(_))
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      w.write("id\top\tparent\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        if (opOf(i) >= 0) w.write(s"$i\t${opOf(i)}\t${parent(i)}\t${names(nameOf(i))}\t${start(i)}\t${end(i)}\n")
        i += 1
      }
      w.write("\n# name\tcount\ttotal_ns\tself_ns\n")
      summary.foreach { case (nm, c, t, s) => w.write(s"# $nm\t$c\t$t\t$s\n") }
    } finally w.close()
  }
}

/** Records a span around every add/search call into a vector index. */
final class TracedIndex(val inner: VectorIndex, layer: String, tracer: Tracer)
    extends VectorIndex {
  private val addName    = s"$layer.add"
  private val searchName = s"$layer.search"
  override def add(id: Int, vec: Array[Float]): Unit =
    tracer.span(addName)(inner.add(id, vec))
  override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] =
    tracer.span(searchName)(inner.search(query, k))
  override def size: Int = inner.size
  override def memoryBytes: Long = inner.memoryBytes
}
