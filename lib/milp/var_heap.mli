(** Indexed max-heap over variables keyed by a mutable activity score —
    the decision queue of {!Pb_solver} (VSIDS-style).

    Supports [increase]-key after a bump, removal of the maximum, and
    re-insertion on backtracking; all logarithmic. *)

type t

val create : int -> t
(** [create n] holds variables [0 .. n-1], all initially present with
    activity 0. *)

val activity : t -> int -> float

val bump : t -> int -> float -> unit
(** Add to a variable's activity (repositioning it if queued). *)

val rescale : t -> float -> unit
(** Multiply all activities (used to prevent float overflow). *)

val pop_max : t -> int option
(** Remove and return the queued variable with the highest activity. *)

val push : t -> int -> unit
(** Re-insert a variable (no-op if already queued). *)

val mem : t -> int -> bool
