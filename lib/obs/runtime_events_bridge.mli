(** Bridge from OCaml 5's [Runtime_events] ring buffer into the
    observability stack: GC phases become trace spans and pause metrics.

    The bridge opens a {e self-monitoring} cursor over the current
    process's ring buffer.  Each {!poll} drains the events that
    accumulated since the last one and converts top-level runtime phases
    — "pauses": a minor collection, a major slice, a stop-the-world
    barrier, anything that begins while no other runtime phase is open
    on that domain — into

    - ["gc.*"] span records injected into the trace under a per-domain
      ["gc"] lane (see {!Trace.emit_raw}); each begin carries the
      domain's current user-span depth as an [enclosing_depth] attribute;
    - a [gc.pause_seconds] histogram plus per-domain
      [gc.pause_total_seconds{domain="i"}] / [gc.pauses{domain="i"}]
      counters, and [gc.lost_events] / [gc.domain_churn] counters.

    Nested sub-phases (mark/sweep inside a slice) are tracked for
    nesting but not counted, so pause time is never double-counted.

    {b Polling is the caller's job} — typically {!Runtime.start}'s
    [?bridge] argument, which polls from the sampler domain.  The ring
    holds a bounded number of events per domain; poll at least every few
    hundred milliseconds under allocation-heavy load or events are
    overwritten (counted in [gc.lost_events]).

    {b Cross-domain caveat} (see DESIGN.md §10): the ring identifies
    domains by runtime {e slot}, which equals [Domain.self] only until
    some domain terminates and its slot is reused.  [gc.domain_churn]
    counts terminations so consumers can judge whether slot⇒domain
    attribution is still exact. *)

type t

val start : ?trace:Trace.t -> ?detail:bool -> Metrics.t -> unit -> t
(** Start [Runtime_events] collection (idempotent at the runtime level)
    and open a self-monitoring cursor.  The clock offset between ring
    timestamps (monotonic ns) and {!Clock.now} is calibrated once here.
    [trace] defaults to {!Trace.null} (metrics only); [detail] also
    traces nested sub-phases (default [false]: pauses only). *)

val poll : t -> int
(** Drain pending ring events; returns how many were consumed.  Safe
    from any domain (serialized by an internal mutex). *)

val stop : t -> unit
(** Final poll, close any GC phase still in flight (so the trace lane
    ends with no open span), and free the cursor.  Idempotent. *)

val pause_count : t -> int
(** Total pauses observed so far, across all domains. *)

val pause_seconds : t -> float
(** Total pause time observed so far, across all domains — the same sum
    the [gc.pause_seconds] histogram accumulates. *)
