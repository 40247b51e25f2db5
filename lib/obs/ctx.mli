(** Observability context: the tracer, metrics registry and optional solver
    search-log sink threaded through the synthesis stack as one [?obs]
    argument.

    {!null} is the default everywhere; passing it is free (all sinks are
    disabled) so instrumented code needs no conditional plumbing. *)

type t = private {
  trace : Trace.t;
  metrics : Metrics.t;
  search_log : (Json.t -> unit) option;
}

val null : t

val make :
  ?trace:Trace.t -> ?metrics:Metrics.t ->
  ?search_log:(Json.t -> unit) -> unit -> t
(** [search_log] (default none) receives one JSON object per solver search
    step — branch decisions, conflicts, incumbents, bound improvements —
    from the PB search ({!Milp.Pb_solver}); writing each object on its own
    line yields an NDJSON search log (the [--search-log] CLI flag). *)

val enabled : t -> bool
val trace : t -> Trace.t
val metrics : t -> Metrics.t
val search_log : t -> (Json.t -> unit) option
