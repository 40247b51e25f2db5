(** ILP Modulo Reliability (Algorithm 1).

    Solve the interconnection-only ILP, check the candidate architecture
    with exact reliability analysis, and — when the requirement is missed —
    learn redundant-path constraints ({!Learn_cons}) and iterate.  Exact
    analysis runs only on concrete configurations, a small number of times:
    the lazy counterpart of compiling reliability into the ILP.

    The loop is resilient: a global {!Archex_resilience.Budget} is
    partitioned across iterations, exhaustion surfaces as a typed
    [Budget_exhausted] (never conflated with infeasibility), and a run can
    checkpoint after every iteration and be resumed later ([?resume_from])
    — deterministic replay reconstructs the learned model, so the resumed
    run reaches the same final architecture the uninterrupted run would
    have. *)

type iteration = {
  index : int;                      (** 1-based *)
  config : Netgraph.Digraph.t;
  cost : float;
  reliability : float;              (** worst-sink failure (conservative
                                        upper end under degradation) *)
  per_sink : (int * float) list;
  k_estimate : int option;          (** ESTPATH's k, when learning ran *)
  new_constraints : int;            (** constraint groups added *)
  solver_time : float;
  analysis_time : float;
  stats : Milp.Solver.run_stats;     (** the SOLVEILP run of this iteration
                                        (all-zero for replayed iterations) *)
  solution : float array;
      (** the raw 0-1 assignment behind [config] (over this iteration's
          model variables) *)
  cert : (Archex_obs.Json.t, string) result option;
      (** per-iteration optimality certificate ({!Archex_cert}); [None]
          when the run was not asked to certify *)
  learned_rows : Archex_obs.Json.t list;
      (** provenance of the constraints this iteration's analysis added
          ({!Learn_cons.drain_learned}); empty on convergence *)
  insight : Archex_inspect.insight option;
      (** search-effectiveness record of this iteration's solve, present
          only on inspected runs ([?inspect]) and [None] for replayed
          iterations: the model's row count at solve time, one
          {!Archex_inspect.row} per model constraint with nonzero solver
          activity (its stable id, the insertion index; its declared name
          or ["row<i>"]; its kind, ["template"] / ["requirement"] /
          ["learned"]; its birth iteration; and the
          [props]/[conflicts]/[binding] counters of {!Milp.Row_stats}),
          and the names of the rows the iteration's analysis appended. *)
  model : Milp.Model.t;
      (** a copy of the model this iteration solved, taken before the
          iteration's learned constraints extend it.  [solution] is an
          assignment of it, [cert] proves its optimum there, and on a
          synthesized run the last iteration's model is the final ILP. *)
}

type trace = iteration list
(** Chronological. *)

val run :
  ?obs:Archex_obs.Ctx.t ->
  ?on_event:(Archex_obs.Event.t -> unit) ->
  ?strategy:Learn_cons.strategy ->
  ?solve_time_limit:float ->
  ?certify:bool ->
  ?cert_node_budget:int ->
  ?budget:Archex_resilience.Budget.t ->
  ?checkpoint:string ->
  ?resume_from:Checkpoint.t ->
  ?jobs:int ->
  ?inspect:bool ->
  Archlib.Template.t -> r_star:float -> trace Synthesis.result
(** Synthesize a minimum-cost architecture with worst-sink failure
    probability at most [r*].  [strategy] defaults to the checkpoint's
    strategy when resuming and to {!Learn_cons.Estimated} otherwise.  A
    run that has not converged after 50 iterations reports
    [Unfeasible (Iteration_limit 50)].  [solve_time_limit] (default
    180 s) caps each [SOLVEILP] call; a time-limited call falls back to
    the solver's best incumbent (feasible, possibly not proven optimal —
    the ε tolerance of Theorem 1).

    [budget] (default unlimited) is the run's global allowance.  Each
    iteration first passes through {!Archex_resilience.Budget.check}, each
    [SOLVEILP] call runs under a {!Archex_resilience.Budget.slice} of the
    remaining time (never more than [solve_time_limit]) with the node
    budget enforced and charged inside the solver, and the reliability
    oracle inherits the budget's BDD node ceiling (arming
    {!Rel_analysis}'s degradation ladder).  Exhaustion anywhere yields
    [Unfeasible (Budget_exhausted {error; incumbent; bound})]: the typed
    binding limit, plus the best proven cost lower bound — the cost of the
    last solved relaxation, every such model being a relaxation of the
    final one.

    [checkpoint] (default none) writes an {!Checkpoint} file atomically
    after {e every} recorded iteration, so a killed run can continue from
    the last completed iteration.  [resume_from] replays a checkpoint's
    iterations first — re-running the deterministic learning calls (and,
    when [certify] is set, re-certifying against the replayed model, which
    is exactly the model the original iteration solved) — then continues
    the loop at the next index.  Pass [~r_star:ck.r_star]; an explicit
    [strategy] other than the checkpoint's voids the replay's determinism
    guarantee.

    [certify] (default false) re-proves every iteration's optimum with
    {!Archex_cert.certify} — on the model exactly as solved, before the
    learned constraints of the iteration extend it — and stores the result
    in the iteration's [cert] field (inside a ["certify"] span when
    tracing); [cert_node_budget] caps each certifying search.

    [obs] (default disabled) wraps the run in an ["ilp_mr"] span with one
    ["iteration"] child per loop pass (each enclosing its ["solve"],
    ["reliability"] and ["learn"] spans) and counts [mr.iterations] plus
    the metrics of every layer below; GC gauges are sampled once per
    iteration.  [on_event] receives an [Iteration] progress event (source
    ["ilp-mr"]) after each analyzed candidate, the PB search's own
    heartbeats, and a [Fallback] event for every degradation step taken
    by the reliability oracle.

    [jobs] (default 1) runs each candidate's per-sink reliability checks
    on that many domains ({!Rel_analysis.analyze}).  The synthesized
    architecture, costs and reliability figures are identical at any
    [jobs].

    [inspect] (default false; zero cost when off) turns on
    search-effectiveness inspection: every [SOLVEILP] call runs with a
    fresh {!Milp.Row_stats} activity table, which does not change the
    search, and each recorded iteration carries an [insight] record (see
    {!type:iteration}) for {!Archex_inspect.build}.
    @raise Invalid_argument if [resume_from] was checkpointed at another
    [r*], or references edges that are not candidates in [template]
    (checkpoint/template mismatch). *)

val certificate_of_trace :
  r_star:float -> trace -> (Archex_obs.Json.t, string) result
(** Assemble the end-to-end certificate chain
    ({!Archex_cert.check_chain}-checkable) from a certified run's trace.
    Errors when the trace is empty, an iteration was run without
    certification, or any per-iteration certification failed. *)
