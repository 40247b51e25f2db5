(** Optimality certificates for the exact 0-1 solvers, and their checker.

    A certificate is a self-contained JSON value:

    {v
    { "format": "archex-cert", "version": 1,
      "model": { ... },                         (Milp.Model.to_json)
      "incumbent": { "objective": c,            (absent: infeasibility claim)
                     "solution": [0,1,...] },
      "nodes": n,
      "tree": <node> }
    v}

    where a tree [<node>] is one of

    - [{"leaf": "bound"}] — under the branch assignment on the path to
      this leaf, the minimum achievable objective (interval arithmetic
      over the variable bounds) is at least the incumbent objective minus
      the improvement gap: no better solution exists below this node;
    - [{"leaf": "infeasible", "row": i}] — constraint row [i] cannot be
      satisfied by any extension of the branch assignment;
    - [{"var": x, "zero": <node>, "one": <node>}] — a branch on Boolean
      variable [x].

    A valid tree covers the whole search space, so together with a
    feasibility check of the incumbent it proves optimality (or, with no
    incumbent, infeasibility) of the embedded model as solved, its
    symmetry rows (the [lex_a_b] rows of [Archex.Gen_ilp]) included.
    That those rows keep an optimum of the model without them is
    justified by the template's interchangeability declarations
    ([Archlib.Requirement.Usage_order], checked by
    [Archlib.Template.validate_all]), not by the certificate.  {!check} replays the tree using only
    {!Milp.Model} / {!Milp.Lin_expr} arithmetic — no solver code — so the
    proof does not depend on the correctness of {!Milp.Pb_solver}.  The
    improvement gap is recomputed from the model (a full unit minus
    tolerance when every objective coefficient is integral, a relative
    tolerance otherwise), never read from the
    certificate. *)

val default_node_budget : int
(** 2,000,000 — the certifying search refuses to grow a larger tree. *)

val certify :
  ?node_budget:int ->
  Milp.Model.t ->
  incumbent:(float * float array) option ->
  (Archex_obs.Json.t, string) result
(** Re-prove a solver result on a 0-1 model: verifies the incumbent
    (feasibility + objective) arithmetically, then runs a transparent DFS
    that closes the entire search space, recording the pruning tree.
    [incumbent = None] asks for an infeasibility certificate.

    Errors: infeasible or mis-priced incumbent, a
    feasible solution strictly better than the incumbent (i.e. the solver
    result was wrong), or the node budget running out. *)

(** {1 Checking} *)

type summary = {
  objective : float option;  (** [None] for an infeasibility certificate *)
  vars : int;
  rows : int;
  tree_nodes : int;
}

val check : Archex_obs.Json.t -> (summary, string) result
(** Verify a certificate end to end: parse the embedded model, re-verify
    the incumbent, and replay every tree node — each bound leaf against
    the minimum achievable objective, each infeasible leaf against the
    named row's achievable range, each branch for well-formedness (known
    variable, not branched twice).  Errors name the failing tree
    path (e.g. [tree.one.zero: bound leaf not justified — ...]). *)

(** {1 ILP-MR chains}

    Algorithm 1 solves a sequence of growing models; its end-to-end
    certificate chains one per-iteration certificate per solve and tags
    each learned reliability constraint with the analysis result that
    produced it:

    {v
    { "format": "archex-mr-cert", "version": 1, "r_star": r,
      "iterations": [ { "index": i, "cert": {...}, "learned": [{...}] } ],
      "final": { "objective": c } }
    v} *)

val chain :
  r_star:float ->
  iterations:(Archex_obs.Json.t * Archex_obs.Json.t list) list ->
  final_objective:float option ->
  Archex_obs.Json.t
(** [chain ~r_star ~iterations ~final_objective] assembles the chain;
    each iteration is its certificate plus the learned-constraint
    descriptors ({!Archex.Learn_cons}-style objects carrying at least a
    ["name"]). *)

type chain_summary = {
  iterations : int;
  final_objective : float option;
  total_tree_nodes : int;
}

val check_chain : Archex_obs.Json.t -> (chain_summary, string) result
(** Check every per-iteration certificate, then the chaining itself: each
    iteration's model must extend the previous one (variables and rows
    compared structurally as prefixes), the previous iteration's learned
    constraint names must appear among the added rows, the optimum must
    not decrease as constraints accumulate, and the declared final
    objective must match the last iteration's incumbent. *)
