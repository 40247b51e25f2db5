(** Standard linearizations of logical operations over 0-1 variables
    (Winston [6]; the "standard techniques" the paper invokes for Eqs. 1, 3,
    6, 11).

    Every function adds rows (and sometimes fresh Boolean variables) to a
    model and returns the variable carrying the encoded value. *)

val or_var : ?name:string -> Model.t -> Model.var list -> Model.var
(** [or_var m xs] is a fresh [y] with [y = ∨ xs]
    (rows [y ≥ xᵢ] and [y ≤ Σ xs]).  [xs = []] yields a variable fixed
    to 0. *)

val and_var : ?name:string -> Model.t -> Model.var list -> Model.var
(** Fresh [y = ∧ xs] (rows [y ≤ xᵢ] and [y ≥ Σ xs - (|xs| - 1)]).
    [xs = []] yields a variable fixed to 1. *)

val implies_or : ?name:string -> Model.t -> Model.var -> Model.var list -> unit
(** [a → ∨ bs] as [a ≤ Σ bs] — Eq. 3's shape without materializing the
    left-hand OR. *)

val at_least_k : ?name:string -> Model.t -> Model.var list -> int -> unit
(** [Σ xs ≥ k]. *)

val count_channel :
  ?prefix:string -> Model.t -> Model.var list -> Model.var array
(** [count_channel m xs] returns indicators [ind.(k)] for [k = 0 .. |xs|]
    with [ind.(k) = 1 ↔ Σ xs = k], via the channelling rows
    [Σ_k ind.(k) = 1] and [Σ_k k·ind.(k) = Σ xs] — the device behind the
    paper's Eqs. 10–11 ([x_ijk] selection). *)
