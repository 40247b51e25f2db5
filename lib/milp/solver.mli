(** Unified solver front-end (the [SOLVEILP] of Algorithms 1 and 3).

    Dispatches a model to one of the exact backends and reports a common
    outcome plus solve statistics. *)

type backend =
  | Pseudo_boolean   (** {!Pb_solver} — default for pure 0-1 models *)
  | Lp_branch_bound  (** {!Lp_bb} over {!Simplex} *)
  | Brute_force      (** {!Brute} — tiny models / testing *)
  | Core_guided
      (** {!Pb_solver.solve_core_guided} — BCD2-style bound convergence by
          capped feasibility probes over a persistent clause database.
          Pure 0-1 only; mixed models fall through to [Lp_branch_bound]. *)
  | Portfolio
      (** Race [Pseudo_boolean], [Lp_branch_bound] and [Core_guided] on
          separate domains ({!Archex_parallel.Pool}) over a shared
          incumbent cell ({!Archex_parallel.Shared_best}): each backend
          prunes with the others' incumbents, the first optimality or
          infeasibility proof cancels the rest, and the optimal objective
          is identical regardless of which racer wins.  Mixed (non-0-1)
          models fall through to plain [Lp_branch_bound]. *)

type session
(** Persistent solver state for re-solving a monotonically growing model
    (the ILP-MR loop): learned clauses, variable activities, saved phases
    and the clean level-0 trail survive across {!solve} calls that pass
    the same session.  Backed by {!Pb_solver.Session} on pure 0-1 models;
    on mixed models the session is inert and every backend solves from
    scratch. *)

val make_session : ?rows:Row_stats.t -> Model.t -> session
(** Capture [m] by reference.  Rows/variables appended to [m] between
    solves are ingested automatically at the next {!solve}.  The model
    must only ever grow (never weaken) for carried state to stay sound. *)

val session_model : session -> Model.t

val session_carried_learned : session -> int
(** Learned rows carried into the session's most recent solve — stamped
    into per-iteration certificates as provenance by [Ilp_mr]. *)

val session_solves : session -> int
(** Number of solves the session has run. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Limit_reached of { incumbent : (float * float array) option }

type run_stats = {
  backend : backend;    (** the backend that produced the outcome (the
                            retry target after a fallback) *)
  nodes : int;          (** decisions (PB) or B&B nodes (LP); the sum of
                            both racers under [Portfolio] *)
  propagations : int;   (** PB only *)
  conflicts : int;      (** PB only *)
  pivots : int;         (** LP only *)
  presolve_fixed : int;
  presolve_dropped : int;
  elapsed : float;      (** seconds *)
  best_bound : float option;
      (** best proven objective lower bound at exit; equals the objective
          on [Optimal], and on [Limit_reached] sandwiches the optimum
          between itself and the incumbent *)
  retries : int;        (** backend-fallback retries (numeric stall) *)
}

val solve :
  ?obs:Archex_obs.Ctx.t ->
  ?on_event:(Archex_obs.Event.t -> unit) ->
  ?backend:backend ->
  ?presolve:bool ->
  ?rows:Row_stats.t ->
  ?max_nodes:int ->
  ?time_limit:float ->
  ?budget:Archex_resilience.Budget.t ->
  ?session:session ->
  ?lower_bound:float ->
  Model.t -> outcome * run_stats
(** Minimize the model.  [backend] defaults to [Pseudo_boolean] when the
    model is pure Boolean, [Lp_branch_bound] otherwise.  [presolve]
    (default true) runs {!Presolve} first.  [time_limit] is wall-clock
    seconds ({!Archex_obs.Clock}; the caller's model is never mutated).

    [session] switches the PB backend (standalone or as the portfolio's PB
    racer) to incremental mode: the solve resumes from the session's
    carried state and its per-call statistics are deltas, so summing them
    over successive calls matches the session totals.  Because presolve
    renumbers rows, it is incompatible with a session: explicitly passing
    [~presolve:true] together with [~session] raises
    {!Archex_resilience.Error.E} with [Invalid_input] (a defaulted or
    [false] presolve is simply treated as off, as it already is under
    [rows]).  [lower_bound], when given, must be a valid lower bound on
    every feasible objective value of [m] — e.g. the [best_bound] proved
    for a previous, weaker model in the MR loop (appending rows can only
    raise the optimum).  It is maxed with the {!Obj_bound} bound and lets
    the backends close optimality proofs much earlier: the PB search stops
    at the first incumbent that meets it, and a session's later solves
    also install a strictly stronger bound as a permanent objective floor
    row.

    [budget] (default none) clamps [time_limit] and [max_nodes] under the
    global allowance: the call never runs past
    {!Archex_resilience.Budget.remaining_time} or
    {!Archex_resilience.Budget.remaining_nodes}, the nodes it does spend
    are charged back, and an already-exhausted budget — or an injected
    [Solver_limit] fault ({!Archex_resilience.Faults}) — returns
    [Limit_reached {incumbent = None}] immediately.

    When the LP backend trips the {!Simplex} pivot ceiling on a pure 0-1
    model (a numeric stall, not a search-space fact), the solve is retried
    once on the [Pseudo_boolean] backend; the fallback is reported as a
    [Fallback] progress event (source ["solver"]), a ["retry-pb"] phase in
    the search log, a [solve.retries] metric, and [retries = 1] in the
    returned statistics.

    [rows] (default none; zero cost without it) accumulates per-model-row
    activity ({!Row_stats}) keyed by row insertion index in [m]: PB
    propagations/conflicts/binding, LP prune attribution.  Because
    attribution keys on row indices, passing [rows] forces [presolve] off
    (presolve drops implied rows and would shift the indices).  Under
    [Portfolio] each racer fills a private instance, merged into [rows]
    after the race.  Totals are also emitted as
    [solver.constraint.propagations/conflicts/binding/prunes] counters and,
    when a search log is installed, as one final
    [{"ev":"row_activity", "rows":[...]}] record.

    [obs] (default disabled) wraps the run in a ["solve"] trace span
    (attributes: backend, vars, constraints) and accumulates backend
    metrics — [pb.*], [bb.nodes], [lp.pivots], [presolve.*] — plus a
    [solve.calls] counter and a [solve.seconds] histogram.  [on_event]
    forwards the backend's progress callback (heartbeats and incumbent
    updates).

    The front-end computes the {!Obj_bound} combinatorial lower bound and
    injects it as an implied row.  The PB backend then runs one search,
    on the caller's session or a fresh one, with the whole [time_limit];
    its [stats] count all the PB work the call did. *)

val solution_value : float array -> Model.var -> bool
(** Convenience: read a 0-1 solution entry as a Boolean (≥ 0.5). *)

val backend_name : backend -> string
val pp_outcome : Format.formatter -> outcome -> unit

val pp_run_stats : Format.formatter -> run_stats -> unit
(** One-line human summary, e.g.
    ["pb: 421 nodes, 1530 propagations, 37 conflicts, 0.004s"]
    (mirrors {!Model.pp_stats}). *)

val run_stats_to_json : run_stats -> Archex_obs.Json.t
(** Structured form of {!run_stats} for machine-readable reports. *)
