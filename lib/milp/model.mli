(** 0-1 model builder — the YALMIP-role layer.

    A model is a mutable container of 0-1 variables, linear constraints
    and a minimization objective.  Solvers ({!Pb_solver}, {!Brute})
    consume models; {!Bool_encode} adds logical sugar on top. *)

type t
type var = int

type cmp = Le | Ge | Eq

type row = {
  cname : string option;
  expr : Lin_expr.t;
  cmp : cmp;
  rhs : float;
}
(** A constraint [expr cmp rhs] (the expression's constant is folded into the
    comparison, i.e. the row means [expr - rhs cmp 0]). *)

val create : unit -> t

(** {1 Variables} *)

val bool_var : ?name:string -> t -> var
val bool_vars : ?prefix:string -> t -> int -> var array
val var_count : t -> int
val name_of : t -> var -> string
(** Given name, or ["x<i>"]. *)

val lower_bound : t -> var -> float
val upper_bound : t -> var -> float

val fix : t -> var -> float -> unit
(** Narrow a variable's bounds to a single value.
    @raise Invalid_argument if the value is outside the current bounds or
    not integral. *)

(** {1 Constraints and objective} *)

val add_constraint : ?name:string -> t -> Lin_expr.t -> cmp -> float -> unit

val add_boolean_clause : ?name:string -> t -> pos:var list -> neg:var list -> unit
(** Clause [∨ pos ∨ ¬neg] as the linear row
    [Σ pos + Σ (1 - neg) ≥ 1]. *)

val constraint_count : t -> int
val iter_constraints : t -> (row -> unit) -> unit
val constraints : t -> row list
(** In insertion order. *)

val set_objective : t -> Lin_expr.t -> unit
(** Objective to {e minimize} (default [0]). *)

val objective : t -> Lin_expr.t

(** {1 Evaluation} *)

val objective_value : t -> (int -> float) -> float

val violated_constraints : ?tol:float -> t -> (int -> float) -> row list
(** Rows violated by an assignment beyond a relative tolerance
    (default [1e-6]). *)

val is_feasible : ?tol:float -> t -> (int -> float) -> bool
(** Constraint and bound satisfaction (integrality included). *)

val copy : t -> t
(** Independent copy (new constraints/fixings don't propagate back): used by
    ILP-MR to extend the base ILP at every iteration. *)

(** {1 Serialization}

    The wire format embedded in optimality certificates: everything
    semantic round-trips — possibly-narrowed bounds, objective, rows in
    insertion order, names.  Every variable is written with
    [{"kind": "bool"}]. *)

val to_json : t -> Archex_obs.Json.t

val of_json : Archex_obs.Json.t -> (t, string) result
(** Rebuilds a model from {!to_json} output.  Validation errors (a kind
    other than ["bool"], variable indices out of range, bounds outside
    [[0, 1]]) are reported, not raised. *)
