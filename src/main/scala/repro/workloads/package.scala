package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

package object workloads {

  /** Runs `body` on `df` cached, as the benchmarks cache their iterated
    * inputs. Caches `df` and unpersists it afterwards only when it was not
    * cached on entry, so a cache the caller made survives the call.
    */
  private[workloads] def withCached[T](df: DataFrame)(body: DataFrame => T): T =
    if (df.storageLevel != StorageLevel.NONE) body(df)
    else {
      val cached = df.cache()
      try body(cached) finally { cached.unpersist(); () }
    }
}
