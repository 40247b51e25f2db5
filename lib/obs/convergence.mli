(** Solver convergence timelines.

    Reconstructs per-solve (time, incumbent, best lower bound, gap)
    timelines from progress events recorded in a span trace as instants
    named ["progress"] (see the [--trace] CLI flag).  A run containing
    several solver invocations (e.g. one per ILP-MR iteration) yields one
    {!segment} per invocation: segments split where the emitting source
    changes or its elapsed clock restarts. *)

type point = {
  t : float;        (** seconds since the first trace record *)
  elapsed : float;  (** seconds since the emitting stage started *)
  kind : Event.kind;
  incumbent : float option; (** best feasible objective so far *)
  bound : float option;     (** best proven lower bound so far *)
}

type segment = {
  index : int;      (** 1-based solve number within the run *)
  source : string;  (** emitting stage, e.g. ["pb"] or ["ilp-mr"] *)
  points : point list;
}

type t = {
  segments : segment list;
  iterations : (float * Event.t) list;
      (** outer-loop {!Event.Iteration} events with their trace time —
          the ILP-MR per-iteration history *)
}

val gap : incumbent:float -> bound:float -> float
(** Relative optimality gap [(incumbent - bound) / max(1e-9, |incumbent|)],
    clamped to be non-negative. *)

val point_gap : point -> float option
(** {!gap} of a point when both values are known. *)

val of_events : Json.t list -> t
(** Timeline from an exported trace (the NDJSON record list). *)

val final_gap : segment -> float option
(** Gap at the segment's last point. *)

val pp : Format.formatter -> t -> unit
(** Gap-closure tables, one per segment. *)
