type outcome = Pb_solver.outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Limit_reached of { incumbent : (float * float array) option }

type run_stats = {
  nodes : int;
  propagations : int;
  conflicts : int;
  elapsed : float;
  best_bound : float option;
}

let solution_value solution x = solution.(x) >= 0.5

let now () = Archex_obs.Clock.now ()

let zero_stats =
  { nodes = 0;
    propagations = 0;
    conflicts = 0;
    elapsed = 0.;
    best_bound = None }

let solve_untraced ~obs ~on_event ?rows ?max_nodes ?time_limit ?should_stop
    m =
  let t0 = now () in
  let metrics = Archex_obs.Ctx.metrics obs in
  (* the implied objective lower bound goes into a copy of the model, so
     that propagation can close optimality proofs that it alone cannot
     (see Obj_bound); one search with the whole budget then stops at the
     first incumbent that meets it *)
  let m' = Model.copy m in
  let lower_bound =
    Option.value (Obj_bound.strengthen m') ~default:neg_infinity
  in
  let outcome, (s : Pb_solver.stats) =
    Pb_solver.solve ~metrics ?on_event ?rows ?max_decisions:max_nodes
      ?time_limit ~lower_bound ?should_stop m'
  in
  ( outcome,
    { nodes = s.decisions;
      propagations = s.propagations;
      conflicts = s.conflicts;
      elapsed = now () -. t0;
      best_bound =
        (match outcome with
        | Optimal { objective; _ } -> Some objective
        | Infeasible | Limit_reached _ -> s.bound) } )

let min_opt a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

let solve ?(obs = Archex_obs.Ctx.null) ?on_event ?rows ?time_limit ?budget m
    =
  (* clamp the per-call limits under what the global budget has left *)
  let module B = Archex_resilience.Budget in
  let time_limit =
    match budget with
    | None -> time_limit
    | Some b -> min_opt time_limit (B.remaining_time b)
  in
  let max_nodes = Option.bind budget B.remaining_nodes in
  (* cooperative cancellation: the budget's cancel hook becomes the
     search's [should_stop], polled inside its loop — a
     cancelled daemon job or a SIGINT winds the solve down mid-search
     instead of at the next iteration boundary *)
  let should_stop =
    match budget with
    | Some b -> Some (fun () -> B.is_cancelled b)
    | None -> None
  in
  let spent =
    (match time_limit with Some t -> t <= 0. | None -> false)
    || (match max_nodes with Some n -> n <= 0 | None -> false)
    || (match budget with Some b -> B.is_cancelled b | None -> false)
  in
  let forced_limit =
    spent || Archex_resilience.Faults.probe Archex_resilience.Faults.Solver_limit
  in
  let trace = Archex_obs.Ctx.trace obs in
  let attrs =
    if Archex_obs.Trace.enabled trace then
      [ ("vars", Archex_obs.Json.Num (float_of_int (Model.var_count m)));
        ("constraints",
         Archex_obs.Json.Num (float_of_int (Model.constraint_count m))) ]
    else []
  in
  let outcome, stats =
    Archex_obs.Trace.with_span ~attrs trace "solve" (fun () ->
        if forced_limit then (Limit_reached { incumbent = None }, zero_stats)
        else
          solve_untraced ~obs ~on_event ?rows ?max_nodes ?time_limit
            ?should_stop m)
  in
  (match budget with
  | Some b -> B.charge_nodes b stats.nodes
  | None -> ());
  let metrics = Archex_obs.Ctx.metrics obs in
  if Archex_obs.Metrics.enabled metrics then begin
    Archex_obs.Metrics.incr (Archex_obs.Metrics.counter metrics "solve.calls");
    Archex_obs.Metrics.observe
      (Archex_obs.Metrics.histogram metrics "solve.seconds")
      stats.elapsed
  end;
  (match rows with
  | Some rs when Archex_obs.Metrics.enabled metrics ->
      let add name v =
        Archex_obs.Metrics.add
          (Archex_obs.Metrics.counter metrics name)
          (float_of_int v)
      in
      add "solver.constraint.propagations" (Row_stats.total_propagations rs);
      add "solver.constraint.conflicts" (Row_stats.total_conflicts rs);
      add "solver.constraint.binding" (Row_stats.total_binding rs)
  | Some _ | None -> ());
  Archex_obs.Gc_metrics.sample metrics;
  (outcome, stats)

let pp_run_stats ppf s =
  Format.fprintf ppf "pb: %d nodes" s.nodes;
  if s.propagations > 0 || s.conflicts > 0 then
    Format.fprintf ppf ", %d propagations, %d conflicts" s.propagations
      s.conflicts;
  (match s.best_bound with
  | Some b -> Format.fprintf ppf ", bound %g" b
  | None -> ());
  Format.fprintf ppf ", %.3fs" s.elapsed

let run_stats_to_json s =
  Archex_obs.Json.Obj
    [ ("nodes", Archex_obs.Json.Num (float_of_int s.nodes));
      ("propagations", Archex_obs.Json.Num (float_of_int s.propagations));
      ("conflicts", Archex_obs.Json.Num (float_of_int s.conflicts));
      ("elapsed", Archex_obs.Json.Num s.elapsed);
      ( "best_bound",
        match s.best_bound with
        | Some b -> Archex_obs.Json.Num b
        | None -> Archex_obs.Json.Null ) ]

let pp_outcome ppf = function
  | Optimal { objective; _ } ->
      Format.fprintf ppf "optimal (objective %g)" objective
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Limit_reached { incumbent = Some (c, _) } ->
      Format.fprintf ppf "limit reached (incumbent %g)" c
  | Limit_reached { incumbent = None } ->
      Format.fprintf ppf "limit reached (no incumbent)"
