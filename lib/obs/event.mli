(** Solver progress events.

    Long solves report liveness through an optional [?on_event] callback
    instead of going dark until the time limit: periodic {!Heartbeat}s,
    {!Incumbent} improvements, and outer-loop {!Iteration} completions.
    Events are only constructed when a callback is installed, so the
    disabled path allocates nothing. *)

type kind =
  | Heartbeat  (** periodic liveness from inside a search loop *)
  | Incumbent  (** a new best feasible solution was found *)
  | Bound      (** the proven objective lower bound improved *)
  | Iteration  (** an outer-loop iteration (ILP-MR / ILP-AR) completed *)
  | Fallback
      (** a degradation step was taken: the exact reliability oracle fell
          back to bounds or sampling — data names the stage and the
          rung *)

type t = {
  source : string;  (** emitting stage: ["pb"], ["ilp-mr"], … *)
  kind : kind;
  elapsed : float;  (** wall-clock seconds since the stage started *)
  data : (string * float) list;
      (** stage statistics, e.g. [("conflicts", 42.)] *)
}

val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}; [None] on unknown names. *)

val to_json : t -> Json.t

val of_json : Json.t -> t option
(** Inverse of {!to_json} — used to recover events recorded in a trace.
    Non-numeric [data] entries are dropped; unknown kinds yield [None]. *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering, e.g.
    [\[pb +12.3s\] heartbeat: decisions=15360 conflicts=210]. *)
