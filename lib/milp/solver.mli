(** Solver front-end (the [SOLVEILP] of Algorithms 1 and 3).

    Every model ARCHEX builds is pure 0-1, and one exact search solves
    them all: {!solve} copies the model, adds the {!Obj_bound} row to the
    copy and runs one {!Pb_solver.solve} with the whole time limit.
    {!Brute} stays as the tests' independent oracle. *)

type outcome = Pb_solver.outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Limit_reached of { incumbent : (float * float array) option }

type run_stats = {
  nodes : int;          (** decisions *)
  propagations : int;
  conflicts : int;
  elapsed : float;      (** seconds *)
  best_bound : float option;
      (** best proven objective lower bound at exit; equals the objective
          on [Optimal], and on [Limit_reached] sandwiches the optimum
          between itself and the incumbent *)
}

val solve :
  ?obs:Archex_obs.Ctx.t ->
  ?on_event:(Archex_obs.Event.t -> unit) ->
  ?rows:Row_stats.t ->
  ?time_limit:float ->
  ?budget:Archex_resilience.Budget.t ->
  Model.t -> outcome * run_stats
(** Minimize the model.  [time_limit] is wall-clock seconds
    ({!Archex_obs.Clock}; the caller's model is never mutated).

    [budget] (default none) clamps [time_limit] under the global
    allowance and caps the search's decisions and conflicts alike: the
    call never runs past {!Archex_resilience.Budget.remaining_time} or
    {!Archex_resilience.Budget.remaining_nodes}, the nodes it does spend
    are charged back, and an already-exhausted budget — or an injected
    [Solver_limit] fault ({!Archex_resilience.Faults}) — returns
    [Limit_reached {incumbent = None}] immediately.

    [rows] (default none; zero cost without it) accumulates per-model-row
    activity ({!Row_stats}) keyed by row insertion index in [m]:
    propagations, conflicts and binding.  It observes the search without
    changing it.  Totals are also emitted as
    [solver.constraint.propagations/conflicts/binding] counters.

    [obs] (default disabled) wraps the run in a ["solve"] trace span
    (attributes: vars, constraints) and accumulates the [pb.*] metrics
    plus a [solve.calls] counter and a [solve.seconds] histogram.
    [on_event] forwards the search's progress callback (heartbeats and
    incumbent updates).

    The {!Obj_bound} bound is also the search's [lower_bound]: it stops
    at the first incumbent that meets it. *)

val solution_value : float array -> Model.var -> bool
(** Convenience: read a 0-1 solution entry as a Boolean (≥ 0.5). *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_run_stats : Format.formatter -> run_stats -> unit
(** One-line human summary, e.g.
    ["pb: 421 nodes, 1530 propagations, 37 conflicts, 0.004s"]. *)

val run_stats_to_json : run_stats -> Archex_obs.Json.t
(** Structured form of {!run_stats} for machine-readable reports. *)
