(** Observability context: the tracer and metrics registry threaded
    through the synthesis stack as one [?obs] argument.

    {!null} is the default everywhere; passing it is free (both sinks are
    disabled) so instrumented code needs no conditional plumbing. *)

type t = private {
  trace : Trace.t;
  metrics : Metrics.t;
}

val null : t

val make : ?trace:Trace.t -> ?metrics:Metrics.t -> unit -> t

val trace : t -> Trace.t
val metrics : t -> Metrics.t
