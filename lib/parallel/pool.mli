(** Fixed-size domain pool with a shared work queue.

    A pool of [jobs] runs work on [jobs] domains: [jobs - 1] spawned
    workers plus the calling domain, which always participates in
    {!run}/{!map} — so [jobs = 1] is plain serial execution with no
    domain spawned and no synchronization beyond an uncontended mutex.

    Tasks must confine shared mutation to thread-safe cells
    ({!Stdlib.Atomic}, the Atomic-backed
    [Archex_obs.Metrics]); everything else they touch should be
    task-local.  Pools are cheap enough to create per operation
    (one [Domain.spawn] per extra worker).

    {b Telemetry.}  A pool created with [?obs] reports scheduler state
    into the context's metrics registry: gauges [pool.size],
    [pool.queue_depth] and [pool.workers_busy]; counters
    [pool.jobs_enqueued] / [pool.jobs_started] / [pool.jobs_finished]
    and per-slot [pool.worker_busy_seconds{domain="i"}] (slot 0 is the
    calling domain); histograms [pool.job_seconds] and
    [pool.queue_wait_seconds].  When the context carries a tracer, each
    executed job is a [pool.job] span (tagged with its slot) on the
    executing domain and each {!run} submission a [pool.enqueue]
    instant.  With the default null context all handles are shared
    dummies and nothing is timed. *)

type t

val create :
  ?obs:Archex_obs.Ctx.t -> ?dedicated:bool -> jobs:int -> unit -> t
(** [dedicated] (default [false]) spawns all [jobs] workers instead of
    [jobs - 1]: the caller is then a scheduler that never drains the
    queue itself (the serve daemon's accept loop), and {!submit}ted work
    always has a domain to land on.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Execute every thunk (order-preserving results), distributing across
    the pool's domains; the caller works too.  Exceptions are caught per
    task; after all tasks finish, the first one raised (in completion
    order) is re-raised with its backtrace. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f items] = [run t (List.map (fun x () -> f x) items)]. *)

val submit : t -> (unit -> unit) -> unit
(** Fire-and-forget: enqueue one task and return immediately.  The task
    runs on a spawned worker, so the pool must have at least one
    ([jobs >= 2], or any [dedicated] pool).  The caller is responsible
    for its own completion signalling (the serve engine parks a result
    cell per job).  Exceptions escaping the task are swallowed (a dead
    worker would silently shrink the pool) — catch and record them
    inside the task.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Stop the workers and join their domains.  Idempotent.  Submitted
    work still queued is completed first. *)

val with_pool : ?obs:Archex_obs.Ctx.t -> jobs:int -> (t -> 'a) -> 'a
(** [create], run, and [shutdown] even on exception. *)
