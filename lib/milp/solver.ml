type backend =
  | Pseudo_boolean
  | Lp_branch_bound
  | Brute_force
  | Core_guided
  | Portfolio

(* Persistent solver state carried across calls on a monotonically growing
   model — PB-only today (the MR hot path is pure 0-1); a mixed model gets
   a session that every backend simply ignores. *)
type session = {
  sbase : Model.t;
  spb : Pb_solver.Session.t option;
}

let make_session ?rows m =
  { sbase = m;
    spb =
      (if Model.is_pure_boolean m then Some (Pb_solver.Session.create ?rows m)
       else None) }

let session_model s = s.sbase

let session_carried_learned s =
  match s.spb with Some ps -> Pb_solver.Session.carried_learned ps | None -> 0

let session_solves s =
  match s.spb with Some ps -> Pb_solver.Session.solves ps | None -> 0

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Limit_reached of { incumbent : (float * float array) option }

type run_stats = {
  backend : backend;
  nodes : int;
  propagations : int;
  conflicts : int;
  pivots : int;
  presolve_fixed : int;
  presolve_dropped : int;
  elapsed : float;
  best_bound : float option;
  retries : int;
}

let backend_name = function
  | Pseudo_boolean -> "pb"
  | Lp_branch_bound -> "lp-bb"
  | Brute_force -> "brute"
  | Core_guided -> "core-guided"
  | Portfolio -> "portfolio"

let solution_value solution x = solution.(x) >= 0.5

let now () = Archex_obs.Clock.now ()

let solve_untraced ~obs ~on_event ~backend ~presolve ?rows ?max_nodes
    ?time_limit ?should_stop ?session ?(lower_bound = neg_infinity) m =
  let t0 = now () in
  let metrics = Archex_obs.Ctx.metrics obs in
  let log = Archex_obs.Ctx.search_log obs in
  (* search-log header: one record identifying the solve, then one per
     backend phase so a reader can split the stream *)
  let slog fields =
    match log with
    | None -> ()
    | Some sink -> sink (Archex_obs.Json.Obj fields)
  in
  let module J = Archex_obs.Json in
  slog
    [ ("ev", J.Str "solve");
      ("backend", J.Str (backend_name backend));
      ("vars", J.Num (float_of_int (Model.var_count m)));
      ("rows", J.Num (float_of_int (Model.constraint_count m))) ];
  let phase name = slog [ ("ev", J.Str "phase"); ("name", J.Str name) ] in
  let pre =
    if presolve then Presolve.run ~obs m
    else { Presolve.model = m; fixed = []; dropped_rows = 0;
           infeasible = false }
  in
  let empty_stats =
    { backend;
      nodes = 0;
      propagations = 0;
      conflicts = 0;
      pivots = 0;
      presolve_fixed = List.length pre.Presolve.fixed;
      presolve_dropped = pre.Presolve.dropped_rows;
      elapsed = 0.;
      best_bound = None;
      retries = 0 }
  in
  let outcome, stats =
    if pre.Presolve.infeasible then (Infeasible, empty_stats)
    else begin
      let m' =
        if presolve then pre.Presolve.model else Model.copy m
      in
      (* implied objective lower bound: lets branch-and-bound close
         optimality proofs that propagation alone cannot (see Obj_bound).
         The caller's bound (e.g. the previous MR iteration's proven bound
         in incremental mode — rows only ever tighten the model, so it
         stays valid) is maxed in. *)
      let lower_bound =
        match Obj_bound.strengthen m' with
        | Some b -> Float.max b lower_bound
        | None -> lower_bound
      in
      (* the PB search runs on the caller's session, which captured [m]
         itself ([m'] above only contributed the strengthened bound), or
         on a fresh one over the given copy of [m'] *)
      let pb_session ?rows model =
        match session with
        | Some { spb = Some ps; _ } -> ps
        | Some { spb = None; _ } | None -> Pb_solver.Session.create ?rows model
      in
      let map_pb o =
        match o with
        | Pb_solver.Optimal { objective; solution } ->
            Optimal { objective; solution }
        | Pb_solver.Infeasible -> Infeasible
        | Pb_solver.Limit_reached { incumbent } -> Limit_reached { incumbent }
      in
      let of_pb (s : Pb_solver.stats) =
        { empty_stats with
          nodes = s.decisions;
          propagations = s.propagations;
          conflicts = s.conflicts;
          best_bound = s.bound }
      in
      let rec run_backend backend =
      match backend with
      | Pseudo_boolean ->
          (* one search with the whole budget; when the optimum equals
             [lower_bound] it stops at the first incumbent that meets it *)
          phase "main";
          let o, s =
            Pb_solver.Session.solve ~metrics ?on_event ?log ?rows
              ?max_decisions:max_nodes ?time_limit ~lower_bound ?should_stop
              (pb_session ?rows m')
          in
          (map_pb o, of_pb s, false)
      | Lp_branch_bound ->
          let o, s =
            Lp_bb.solve ~metrics ?on_event ?log ?rows ?max_nodes ?time_limit
              ?should_stop m'
          in
          let outcome =
            match o with
            | Lp_bb.Optimal { objective; solution } ->
                Optimal { objective; solution }
            | Lp_bb.Infeasible -> Infeasible
            | Lp_bb.Unbounded -> Unbounded
            | Lp_bb.Limit_reached { incumbent } -> Limit_reached { incumbent }
          in
          ( outcome,
            { empty_stats with
              nodes = s.Lp_bb.nodes;
              pivots = s.Lp_bb.pivots;
              best_bound = s.Lp_bb.bound },
            s.Lp_bb.pivot_limited )
      | Brute_force ->
          let outcome =
            match Brute.solve m' with
            | Brute.Optimal { objective; solution } ->
                Optimal { objective; solution }
            | Brute.Infeasible -> Infeasible
          in
          (outcome, empty_stats, false)
      | Core_guided ->
          (* BCD2-style bound convergence: feasibility probes under an
             objective cap through a private solver session.  Pure 0-1
             only, like PB — mixed models fall through to LP. *)
          if not (Model.is_pure_boolean m') then run_backend Lp_branch_bound
          else begin
            phase "core-guided";
            let o, s =
              Pb_solver.solve_core_guided ~metrics ?on_event ?log ?rows
                ?max_decisions:max_nodes ?time_limit ~lower_bound
                ?should_stop m'
            in
            (map_pb o, of_pb s, false)
          end
      | Portfolio ->
          (* Race the three exact backends on separate domains over a
             shared incumbent cell: each prunes with the others'
             incumbents, the first optimality (or infeasibility) proof
             cancels the rest.  PB and core-guided require a pure 0-1
             model, so mixed models fall through to plain LP
             branch-and-bound.  An incremental session rides the PB racer
             (the other two stay scratch on private model copies). *)
          if not (Model.is_pure_boolean m') then run_backend Lp_branch_bound
          else begin
            let module P = Archex_parallel in
            let shared = P.Shared_best.create () in
            let stop = P.Cancel.create () in
            (* the racers stop on the first definitive proof (token) OR on
               the caller's cooperative cancellation (budget hook) *)
            let caller_stop = should_stop in
            let should_stop () =
              P.Cancel.is_cancelled stop
              || (match caller_stop with Some f -> f () | None -> false)
            in
            (* observability sinks are not required to be thread-safe:
               serialize every racer's emissions through one lock *)
            let sink_lock = Mutex.create () in
            let serialize sink =
              Option.map
                (fun f x ->
                  Mutex.lock sink_lock;
                  Fun.protect
                    ~finally:(fun () -> Mutex.unlock sink_lock)
                    (fun () -> f x))
                sink
            in
            let on_event = serialize on_event in
            let log = serialize log in
            phase "portfolio";
            let pb_model = Model.copy m'
            and lp_model = Model.copy m'
            and cg_model = Model.copy m' in
            (* Row_stats is single-domain mutable: each racer fills its own
               instance, merged into the caller's after the join. *)
            let pb_rows = Option.map (fun _ -> Row_stats.create ()) rows in
            let lp_rows = Option.map (fun _ -> Row_stats.create ()) rows in
            let cg_rows = Option.map (fun _ -> Row_stats.create ()) rows in
            let definitive = function
              | Optimal _ | Infeasible | Unbounded -> true
              | Limit_reached _ -> false
            in
            (* a racer that exits after the token fired was cancelled:
               the gap between the first cancel and its wind-down is the
               cancellation latency (how promptly workers notice) *)
            let observe_cancel_latency o =
              if not (definitive o) then
                match P.Cancel.cancelled_at stop with
                | Some at ->
                    Archex_obs.Metrics.observe
                      (Archex_obs.Metrics.histogram metrics
                         "portfolio.cancel_latency_seconds")
                      (now () -. at)
                | None -> ()
            in
            let run_pb () =
              let o, s =
                Pb_solver.Session.solve ~metrics ?on_event ?log ?rows:pb_rows
                  ?max_decisions:max_nodes ?time_limit ~lower_bound
                  ~should_stop ~shared
                  (pb_session ?rows:pb_rows pb_model)
              in
              let o = map_pb o in
              if definitive o then P.Cancel.cancel stop
              else observe_cancel_latency o;
              (o, s)
            in
            let run_cg () =
              let o, s =
                Pb_solver.solve_core_guided ~metrics ?on_event ?log
                  ?rows:cg_rows ?max_decisions:max_nodes ?time_limit
                  ~lower_bound ~should_stop ~shared cg_model
              in
              let o = map_pb o in
              if definitive o then P.Cancel.cancel stop
              else observe_cancel_latency o;
              (o, s)
            in
            let run_lp () =
              let o, s =
                Lp_bb.solve ~metrics ?on_event ?log ?rows:lp_rows ?max_nodes
                  ?time_limit ~should_stop ~shared lp_model
              in
              let o =
                match o with
                | Lp_bb.Optimal { objective; solution } ->
                    Optimal { objective; solution }
                | Lp_bb.Infeasible -> Infeasible
                | Lp_bb.Unbounded -> Unbounded
                | Lp_bb.Limit_reached { incumbent } ->
                    Limit_reached { incumbent }
              in
              if definitive o then P.Cancel.cancel stop
              else observe_cancel_latency o;
              (o, s)
            in
            let pb, lp, cg =
              match
                P.Pool.with_pool ~obs ~jobs:3 (fun pool ->
                    P.Pool.run pool
                      [ (fun () -> `Pb (run_pb ()));
                        (fun () -> `Lp (run_lp ()));
                        (fun () -> `Cg (run_cg ())) ])
              with
              | [ `Pb pb; `Lp lp; `Cg cg ] -> (pb, lp, cg)
              | _ -> assert false
            in
            let pb_o, pb_s = pb and lp_o, lp_s = lp and cg_o, cg_s = cg in
            (match rows with
            | Some into ->
                Option.iter (fun r -> Row_stats.merge ~into r) pb_rows;
                Option.iter (fun r -> Row_stats.merge ~into r) lp_rows;
                Option.iter (fun r -> Row_stats.merge ~into r) cg_rows
            | None -> ());
            (* winner attribution: which racer produced the definitive
               answer (PB beats LP-BB on ties — it cancelled first or at
               the same poll, and its proof is checked below either way) *)
            (match
               if definitive pb_o then Some "pb"
               else if definitive lp_o then Some "lp_bb"
               else if definitive cg_o then Some "core_guided"
               else None
             with
            | Some winner ->
                Archex_obs.Metrics.incr
                  (Archex_obs.Metrics.counter metrics
                     ("portfolio.winner." ^ winner));
                Archex_obs.Trace.instant
                  ~attrs:[ ("winner", J.Str winner) ]
                  (Archex_obs.Ctx.trace obs) "portfolio.winner"
            | None -> ());
            let outcome =
              if definitive pb_o then pb_o
              else if definitive lp_o then lp_o
              else if definitive cg_o then cg_o
              else
                (* every racer hit limits: the shared cell saw every
                   published incumbent, local or adopted *)
                Limit_reached { incumbent = P.Shared_best.get shared }
            in
            (* each racer's proven lower bound is valid: keep the max *)
            let max_opt a b =
              match (a, b) with
              | Some a, Some b -> Some (Float.max a b)
              | (Some _ as s), None | None, (Some _ as s) -> s
              | None, None -> None
            in
            let best_bound =
              max_opt
                (max_opt pb_s.Pb_solver.bound cg_s.Pb_solver.bound)
                lp_s.Lp_bb.bound
            in
            ( outcome,
              { empty_stats with
                nodes =
                  pb_s.Pb_solver.decisions + lp_s.Lp_bb.nodes
                  + cg_s.Pb_solver.decisions;
                propagations =
                  pb_s.Pb_solver.propagations + cg_s.Pb_solver.propagations;
                conflicts =
                  pb_s.Pb_solver.conflicts + cg_s.Pb_solver.conflicts;
                pivots = lp_s.Lp_bb.pivots;
                best_bound },
              false )
          end
      in
      let o, s, stalled = run_backend backend in
      (* Numeric-stall degradation: a simplex pivot-ceiling trip inside the
         LP relaxation is a numeric breakdown, not a search-space fact.  On
         a pure 0-1 model the pseudo-Boolean backend solves the same
         problem without an LP, so retry there once (the chain
         Lp_branch_bound → Pseudo_boolean of the degradation ladder). *)
      if stalled && backend = Lp_branch_bound && Model.is_pure_boolean m'
      then begin
        phase "retry-pb";
        (match on_event with
        | None -> ()
        | Some f ->
            f
              { Archex_obs.Event.source = "solver";
                kind = Archex_obs.Event.Fallback;
                elapsed = now () -. t0;
                data = [ ("retry", 1.) ] });
        Archex_obs.Metrics.incr
          (Archex_obs.Metrics.counter metrics "solve.retries");
        let o2, s2, _ = run_backend Pseudo_boolean in
        ( o2,
          { s2 with
            backend = Pseudo_boolean;
            pivots = s.pivots;
            retries = 1 } )
      end
      else (o, s)
    end
  in
  let stats =
    match outcome with
    | Optimal { objective; _ } -> { stats with best_bound = Some objective }
    | _ -> stats
  in
  (outcome, { stats with elapsed = now () -. t0 })

let min_opt a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

let solve ?(obs = Archex_obs.Ctx.null) ?on_event ?backend ?presolve ?rows
    ?max_nodes ?time_limit ?budget ?session ?lower_bound m =
  (* Presolve renumbers rows (it drops implied ones), which invalidates
     both per-row attribution indices and every row id persisted inside an
     incremental session.  Defaulted presolve is silently turned off in
     those modes; EXPLICITLY requesting both is a contract violation and
     gets the typed error rather than silently corrupted state. *)
  (match (presolve, session) with
  | Some true, Some _ ->
      raise
        (Archex_resilience.Error.E
           (Archex_resilience.Error.Invalid_input
              [ "presolve cannot be combined with an incremental solver \
                 session: presolve renumbers model rows, invalidating the \
                 learned rows and row ids persisted across session solves";
                "pass ~presolve:false (or omit it) when supplying ~session"
              ]))
  | _ -> ());
  let presolve =
    (match presolve with Some p -> p | None -> true)
    && rows = None && session = None
  in
  let backend =
    match backend with
    | Some b -> b
    | None ->
        if Model.is_pure_boolean m then Pseudo_boolean else Lp_branch_bound
  in
  (* clamp the per-call limits under what the global budget has left *)
  let module B = Archex_resilience.Budget in
  let time_limit =
    match budget with
    | None -> time_limit
    | Some b -> min_opt time_limit (B.remaining_time b)
  in
  let max_nodes =
    match budget with
    | None -> max_nodes
    | Some b -> min_opt max_nodes (B.remaining_nodes b)
  in
  (* cooperative cancellation: the budget's cancel hook becomes the
     backends' [should_stop], polled inside their search loops — a
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
      [ ("backend", Archex_obs.Json.Str (backend_name backend));
        ("vars", Archex_obs.Json.Num (float_of_int (Model.var_count m)));
        ("constraints",
         Archex_obs.Json.Num (float_of_int (Model.constraint_count m))) ]
    else []
  in
  let outcome, stats =
    Archex_obs.Trace.with_span ~attrs trace "solve" (fun () ->
        if forced_limit then
          ( Limit_reached { incumbent = None },
            { backend;
              nodes = 0;
              propagations = 0;
              conflicts = 0;
              pivots = 0;
              presolve_fixed = 0;
              presolve_dropped = 0;
              elapsed = 0.;
              best_bound = None;
              retries = 0 } )
        else
          solve_untraced ~obs ~on_event ~backend ~presolve ?rows ?max_nodes
            ?time_limit ?should_stop ?session ?lower_bound m)
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
  | None -> ()
  | Some rs ->
      if Archex_obs.Metrics.enabled metrics then begin
        let add name v =
          Archex_obs.Metrics.add
            (Archex_obs.Metrics.counter metrics name)
            (float_of_int v)
        in
        add "solver.constraint.propagations" (Row_stats.total_propagations rs);
        add "solver.constraint.conflicts" (Row_stats.total_conflicts rs);
        add "solver.constraint.binding" (Row_stats.total_binding rs);
        add "solver.constraint.prunes" (Row_stats.total_prunes rs)
      end;
      match Archex_obs.Ctx.search_log obs with
      | None -> ()
      | Some sink ->
          let fields =
            match Row_stats.to_json rs with
            | Archex_obs.Json.Obj fields -> fields
            | _ -> []
          in
          sink
            (Archex_obs.Json.Obj
               (("ev", Archex_obs.Json.Str "row_activity") :: fields)));
  Archex_obs.Gc_metrics.sample metrics;
  (outcome, stats)

let pp_run_stats ppf s =
  Format.fprintf ppf "%s: %d nodes" (backend_name s.backend) s.nodes;
  if s.propagations > 0 || s.conflicts > 0 then
    Format.fprintf ppf ", %d propagations, %d conflicts" s.propagations
      s.conflicts;
  if s.pivots > 0 then Format.fprintf ppf ", %d pivots" s.pivots;
  if s.presolve_fixed > 0 || s.presolve_dropped > 0 then
    Format.fprintf ppf ", presolve %d fixed / %d dropped" s.presolve_fixed
      s.presolve_dropped;
  (match s.best_bound with
  | Some b -> Format.fprintf ppf ", bound %g" b
  | None -> ());
  if s.retries > 0 then Format.fprintf ppf ", %d retries" s.retries;
  Format.fprintf ppf ", %.3fs" s.elapsed

let run_stats_to_json s =
  Archex_obs.Json.Obj
    [ ("backend", Archex_obs.Json.Str (backend_name s.backend));
      ("nodes", Archex_obs.Json.Num (float_of_int s.nodes));
      ("propagations", Archex_obs.Json.Num (float_of_int s.propagations));
      ("conflicts", Archex_obs.Json.Num (float_of_int s.conflicts));
      ("pivots", Archex_obs.Json.Num (float_of_int s.pivots));
      ("presolve_fixed",
       Archex_obs.Json.Num (float_of_int s.presolve_fixed));
      ("presolve_dropped",
       Archex_obs.Json.Num (float_of_int s.presolve_dropped));
      ("elapsed", Archex_obs.Json.Num s.elapsed);
      ( "best_bound",
        match s.best_bound with
        | Some b -> Archex_obs.Json.Num b
        | None -> Archex_obs.Json.Null );
      ("retries", Archex_obs.Json.Num (float_of_int s.retries)) ]

let pp_outcome ppf = function
  | Optimal { objective; _ } ->
      Format.fprintf ppf "optimal (objective %g)" objective
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Unbounded -> Format.fprintf ppf "unbounded"
  | Limit_reached { incumbent = Some (c, _) } ->
      Format.fprintf ppf "limit reached (incumbent %g)" c
  | Limit_reached { incumbent = None } ->
      Format.fprintf ppf "limit reached (no incumbent)"
