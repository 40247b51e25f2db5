(** [GENILP]: compile a template and its interconnection requirements into a
    0-1 ILP over the edge decision variables (Sec. II).

    The encoding owns the mapping between candidate edges and model
    variables; ILP-MR's learned constraints and ILP-AR's reliability rows
    are added on top of it. *)

type t

val encode : ?obs:Archex_obs.Ctx.t -> Archlib.Template.t -> t
(** Build the base ILP:
    - one Boolean [e_uv] per candidate edge;
    - one usage indicator [δ_v = ∨ (e_uv ∨ e_vu)] per node that has
      candidate edges (Eq. 1's node term);
    - one pair indicator per unordered candidate pair carrying a switch
      cost;
    - the objective of Eq. 1;
    - one row (or row group) per template requirement (Eqs. 2–4).

    A {!Archlib.Requirement.Usage_order} declaration, its nodes sorted by
    id, lowers to the δ-order rows [δ_a ≥ δ_b] and, for each adjacent
    pair [(a, b)], one symmetry row named ["lex_a_b"]: a prefix of the
    lex-leader constraint [x ≤lex σ(x)] for the swap [σ = (a b)], over
    the model's own variable order (candidate edges by [(u, v)]
    descending, then the rest).  Its terms are the first [k] edge pairs
    that [σ] exchanges, [k] being [a]'s number of candidate successors
    (at most 20), weighted [2^(k−1)], …, [2], [1].  The rows keep an
    optimum whenever the declared swaps are automorphisms of the model,
    which {!Archlib.Template.validate_all} checks on the template.
    [obs] (default disabled) wraps the compilation in an ["encode"] span.
    @raise Invalid_argument if a requirement references a non-candidate
    edge, or a [Usage_order] pair's swap maps a candidate edge to a
    non-candidate. *)

val template : t -> Archlib.Template.t
val model : t -> Milp.Model.t
(** The underlying model — mutable: algorithm layers extend it. *)

val edge_var : t -> int -> int -> Milp.Model.var
(** @raise Not_found if the edge is not a candidate. *)

val edge_var_opt : t -> int -> int -> Milp.Model.var option
val delta_var : t -> int -> Milp.Model.var option
(** Usage indicator of a node ([None] for nodes with no candidate edges,
    which can never be instantiated). *)

val config_of_solution : t -> float array -> Netgraph.Digraph.t
(** Read a configuration out of a 0-1 solution. *)

type outcome =
  | Solved of {
      solution : float array;
      config : Netgraph.Digraph.t;
      objective : float;
      stats : Milp.Solver.run_stats;
    }
      (** a feasible configuration — proven optimal, or the best incumbent
          of a limit-hit solve (the cost says which: see [stats]) *)
  | No_solution of { stats : Milp.Solver.run_stats }
      (** {e proved} infeasible *)
  | Exhausted of {
      error : Archex_resilience.Error.t;
      stats : Milp.Solver.run_stats;
    }
      (** the solve ran out of budget with no feasible incumbent.
          [stats.best_bound] still carries whatever lower bound the
          aborted search proved. *)

val solve :
  ?obs:Archex_obs.Ctx.t ->
  ?on_event:(Archex_obs.Event.t -> unit) ->
  ?rows:Milp.Row_stats.t ->
  ?time_limit:float ->
  ?budget:Archex_resilience.Budget.t ->
  t -> outcome
(** [SOLVEILP]: minimize, and read the configuration out of the solution.
    Infeasibility and budget exhaustion are distinct constructors, never
    conflated.  [obs], [on_event], [rows] (per-row activity tracking) and
    [budget] are forwarded to {!Milp.Solver.solve}, which clamps the call
    under the global allowance and charges the nodes it spends. *)
