(** Per-constraint activity counters for search-effectiveness telemetry.

    A [Row_stats.t] accumulates, per {e model row} (identified by its
    insertion index in the {!Model.t} handed to the solver), how useful the
    row was during one solve:

    - {b propagations}: unit propagations the row caused ({!Pb_solver});
    - {b conflicts}: conflicts the row participated in, either as the
      directly falsified row or as a reason expanded during 1-UIP conflict
      analysis ({!Pb_solver});
    - {b binding}: times the row was tight (|activity - bound| ≤ tol) at an
      improving incumbent ({!Pb_solver}).

    The structure is single-domain mutable.  All bumps ignore negative
    indices, so solver-internal rows (learned clauses, bound rows) can pass
    [-1] unconditionally. *)

type t

val create : unit -> t

val bump_propagation : t -> int -> unit
val bump_conflict : t -> int -> unit
val bump_binding : t -> int -> unit

val rows : t -> int
(** Number of rows with recorded activity (max bumped index + 1). *)

val propagations : t -> int -> int
val conflicts : t -> int -> int
val binding : t -> int -> int
(** Per-row accessors; 0 beyond {!rows}. *)

val activity : t -> int -> int
(** Sum of the three counters for one row. *)

val total_propagations : t -> int
val total_conflicts : t -> int
val total_binding : t -> int
