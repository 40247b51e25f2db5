(** Metrics registry: named counters, gauges and log-scale histograms.

    All handles are safe to update from multiple domains concurrently:
    counters and gauges are [Atomic] float cells (a counter bump is one
    compare-and-set loop), histograms and the registry itself are
    mutex-protected.  The {!null} registry hands out shared dummy
    handles whose updates land in write-only cells — instrumented code can
    therefore update unconditionally with no allocation on the fast path,
    and a disabled registry has no observable effect.

    Conventional names used across the synthesis stack:
    [pb.decisions], [pb.propagations], [pb.conflicts], [pb.learned],
    [pb.restarts], [mr.iterations], [mr.constraints_learned],
    [rel.bdd_nodes], [rel.analyses]. *)

type t
type counter
type gauge
type histogram

val create : unit -> t
val null : t
(** Disabled registry: handle lookups return shared dummies, snapshots are
    empty. *)

val enabled : t -> bool

val counter : t -> string -> counter
(** Find or register.  @raise Invalid_argument if the name is already
    registered with a different kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram
(** Log₂-bucketed histogram covering [2⁻⁴⁰, 2²⁴] (≈1e-12 s to ≈2e7 s when
    observing durations); out-of-range values clamp to the end buckets. *)

val add : counter -> float -> unit
val incr : counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit
(** Record one observation.  Non-finite values (NaN, ±∞) are dropped:
    one of them would otherwise poison [sum]/[min]/[max] permanently and
    drag every later {!quantile} to ±∞, so the histogram's snapshot
    stays well-defined — finite, or [null] when empty — at any sample
    count. *)

val counter_value : counter -> float
val gauge_value : gauge -> float
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_bound : int -> float
(** Inclusive upper bound of bucket [i] ([2^(i-40)]). *)

val bucket_counts : histogram -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)], ascending. *)

val quantile : histogram -> float -> float option
(** Quantile estimate (e.g. [quantile h 0.99] for p99) interpolated
    linearly inside the log₂ bucket holding the requested rank and clamped
    to the observed min/max.  The estimate is exact only up to the bucket
    resolution (a factor of 2); [None] when the histogram is empty. *)

val value : t -> string -> float option
(** Current value of a counter or gauge by name.  Returns [None] if the
    name is absent or the registry is {!null} — and also when the name is
    registered as a {e histogram}: a histogram has no single current value
    (it is a distribution), so read it through {!histogram_count},
    {!histogram_sum}, {!quantile} or {!bucket_counts} instead. *)

val to_json : t -> Json.t
(** Snapshot: an object keyed by metric name, sorted.  Counters and gauges
    are numbers; histograms are objects with [count], [sum], [min], [max],
    bucket-interpolated [p50]/[p90]/[p99] quantile estimates (see
    {!quantile}) and the non-empty [buckets]. *)

val write_file : t -> string -> unit
(** Write {!to_json} (newline-terminated) to a file. *)

val to_prometheus : t -> string
(** Prometheus text exposition (format 0.0.4) of the whole registry:
    one [# TYPE] line per metric family followed by its series.  Dotted
    names are sanitized to [\[a-zA-Z0-9_:\]] ([pool.queue_depth] becomes
    [pool_queue_depth]); a name may carry an explicit label block which
    is passed through verbatim — registering
    [pool.worker_busy_seconds{domain="0"}] exposes
    [pool_worker_busy_seconds{domain="0"}], and labeled series of the
    same base share one [# TYPE] line.  Histograms expose cumulative
    [_bucket{le="..."}] series (ending at [le="+Inf"]) plus [_sum] and
    [_count].  The {!null} registry exposes the empty string. *)

val write_prometheus_file : t -> string -> unit
(** Write {!to_prometheus} to [path] atomically: the text is written to a
    sibling temp file first and renamed over the target, so a concurrent
    scraper never observes a torn snapshot. *)
