(** Exact pseudo-Boolean optimizer — the one search behind {!Solver},
    standing in for CPLEX on the paper's pure 0-1 models.

    Branch-and-bound DFS with slack-based unit propagation over normalized
    rows [Σ aᵢ·litᵢ ≥ b] (all [aᵢ > 0], literals are variables or their
    complements), objective lower-bound pruning, and cost-aware value
    ordering (cheap assignment first, so good incumbents appear early).

    Coefficients are floats; every row carries a relative tolerance so that
    the tiny failure-probability coefficients of the ILP-AR encoding
    (Eq. 9, down to [p^k ≈ 1e-37]) propagate exactly like the unit-scale
    interconnection rows. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;  (** rows learned in all (not the final database size) *)
  bound : float option;
      (** best proven objective lower bound at exit — survives a
          [Limit_reached] abort, where it sandwiches the true optimum
          between itself and the incumbent *)
}

val zero_stats : stats

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Limit_reached of { incumbent : (float * float array) option }
      (** Search aborted by [max_decisions] / [time_limit]; carries the best
          feasible solution found so far, if any. *)

val solve :
  ?metrics:Archex_obs.Metrics.t ->
  ?on_event:(Archex_obs.Event.t -> unit) ->
  ?rows:Row_stats.t ->
  ?max_decisions:int -> ?time_limit:float -> ?lower_bound:float ->
  ?should_stop:(unit -> bool) ->
  Model.t -> outcome * stats
(** Minimize the model objective over all feasible 0-1 assignments.
    [time_limit] is in wall-clock seconds ({!Archex_obs.Clock};
    [max_decisions] also caps the conflict count).  [lower_bound], when
    provided (e.g. from {!Obj_bound.lower_bound}), must be a valid bound on
    every feasible objective value; it lets the search declare optimality
    as soon as the incumbent is within the improvement gap of it.

    [metrics] (default disabled) accumulates [pb.decisions],
    [pb.propagations], [pb.conflicts], [pb.restarts] and [pb.learned].
    [on_event] (default none; nothing is allocated without it) receives a
    [Heartbeat] every few thousand search steps, an [Incumbent] event at
    every improving solution and a [Bound] event whenever the proven
    objective lower bound improves (the level-0 cost floor; it closes onto
    the incumbent when optimality is proven), with source ["pb"].
    Heartbeat and incumbent data include the current ["bound"] when one is
    known, so a (time, incumbent, bound) timeline can be reconstructed
    from the stream (see {!Archex_obs.Convergence}).

    [rows] (default none; no per-row work without it) accumulates per-model-row
    activity counters ({!Row_stats}): propagations caused, conflicts
    participated in (as the falsified row or as an expanded reason during
    1-UIP analysis) and binding-at-incumbent.  Rows are identified by their
    insertion index in [m]; solver-internal rows (learned clauses, objective
    bound rows) are not attributed, and the ids are stable across learned-
    clause database compaction.

    [should_stop] (polled every few dozen search steps) requests a
    cooperative abort: the solve returns [Limit_reached] with the current
    incumbent. *)
