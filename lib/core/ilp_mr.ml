module B = Archex_resilience.Budget
module Err = Archex_resilience.Error

type iteration = {
  index : int;
  config : Netgraph.Digraph.t;
  cost : float;
  reliability : float;
  per_sink : (int * float) list;
  k_estimate : int option;
  new_constraints : int;
  solver_time : float;
  analysis_time : float;
  stats : Milp.Solver.run_stats;
  solution : float array;
  cert : (Archex_obs.Json.t, string) result option;
  learned_rows : Archex_obs.Json.t list;
  insight : Archex_inspect.insight option;
  model : Milp.Model.t;
}

type trace = iteration list

let strategy_name = function
  | Learn_cons.Estimated -> "estimated"
  | Learn_cons.Lazy_one_path -> "lazy-one-path"

let strategy_of_name = function
  | "estimated" -> Some Learn_cons.Estimated
  | "lazy-one-path" -> Some Learn_cons.Lazy_one_path
  | _ -> None

(* Replayed iterations did not re-run the solver; their statistics are
   zero by construction, not unknown. *)
let replay_stats =
  { Milp.Solver.nodes = 0;
    propagations = 0;
    conflicts = 0;
    elapsed = 0.;
    best_bound = None }

let checkpoint_iteration it =
  { Checkpoint.index = it.index;
    solution = it.solution;
    edges = Netgraph.Digraph.edges it.config;
    cost = it.cost;
    reliability = it.reliability;
    per_sink = it.per_sink;
    k_estimate = it.k_estimate;
    new_constraints = it.new_constraints }

(* ------------------------------------------------------------------ *)
(* Search-effectiveness inspection (the [?inspect] mode)

   Every model row gets a stable id — its insertion index, which only ever
   grows because Learn_cons appends — and a birth iteration (0 for the base
   encoding, i for rows learned by iteration i's analysis).  Per iteration
   the solver fills a {!Milp.Row_stats} activity table, which is distilled
   into one {!Archex_inspect.insight} record: row activity with names and
   birth, and the names of the rows the iteration's analysis appended. *)

(* Birth iteration of a row id from the learn breakpoints, a
   (first_row, iteration) list newest-first: rows below every breakpoint
   belong to the base encoding (iteration 0). *)
let born_of breakpoints id =
  let rec find = function
    | (first, it) :: rest -> if id >= first then it else find rest
    | [] -> 0
  in
  find breakpoints

let row_kind ~born name =
  if born > 0 then "learned"
  else
    match name with
    | Some n when String.length n >= 3 && String.sub n 0 3 = "req" ->
        "requirement"
    | _ -> "template"

(* Iteration [index]'s insight from the activity table [rs] of its solve
   over the first [rows_total] rows of [model], which by now also holds
   the rows the iteration's analysis appended. *)
let insight ~index ~rows_total ~breakpoints model rs =
  let names =
    Array.of_list
      (List.map (fun r -> r.Milp.Model.cname) (Milp.Model.constraints model))
  in
  let name id =
    match names.(id) with Some n -> n | None -> Printf.sprintf "row%d" id
  in
  let activity = ref [] in
  (* indices ≥ rows_total belong to solver-side extras (the Obj_bound
     row): not rows of this model, skipped *)
  for id = min rows_total (Milp.Row_stats.rows rs) - 1 downto 0 do
    if Milp.Row_stats.activity rs id > 0 then begin
      let born = born_of breakpoints id in
      activity :=
        { Archex_inspect.id;
          name = name id;
          kind = row_kind ~born names.(id);
          born;
          props = Milp.Row_stats.propagations rs id;
          conflicts = Milp.Row_stats.conflicts rs id;
          binding = Milp.Row_stats.binding rs id }
        :: !activity
    end
  done;
  { Archex_inspect.iteration = index;
    rows_total;
    activity = !activity;
    learned_names =
      List.init (Array.length names - rows_total) (fun i ->
          name (rows_total + i)) }

(* Guard against non-termination: a run still short of r* after this many
   iterations reports [Iteration_limit]. *)
let max_iterations = 50

let run ?(obs = Archex_obs.Ctx.null) ?on_event ?strategy
    ?(solve_time_limit = 180.) ?(certify = false) ?cert_node_budget
    ?(budget = B.unlimited) ?checkpoint ?resume_from ?(jobs = 1)
    ?(inspect = false) template ~r_star =
  (match resume_from with
  | Some ck when ck.Checkpoint.r_star <> r_star ->
      invalid_arg
        (Printf.sprintf
           "Ilp_mr.run: r_star %g is not the checkpoint's r* %g" r_star
           ck.Checkpoint.r_star)
  | _ -> ());
  let strategy =
    match (strategy, resume_from) with
    | Some s, _ -> s
    | None, Some ck ->
        Option.value ~default:Learn_cons.Estimated
          (Option.bind ck.Checkpoint.strategy strategy_of_name)
    | None, None -> Learn_cons.Estimated
  in
  let tracer = Archex_obs.Ctx.trace obs in
  let metrics = Archex_obs.Ctx.metrics obs in
  let root_attrs =
    if Archex_obs.Trace.enabled tracer then
      [ ("r_star", Archex_obs.Json.Num r_star) ]
    else []
  in
  let t_run = Archex_obs.Clock.now () in
  let t0 = Archex_obs.Clock.now () in
  let enc = Gen_ilp.encode ~obs template in
  Archex_obs.Trace.with_span ~attrs:root_attrs tracer "ilp_mr" @@ fun () ->
  let setup_time = Archex_obs.Clock.now () -. t0 in
  let learn_state = Learn_cons.init ~obs enc in
  let solver_total = ref 0. in
  let analysis_total = ref 0. in
  (* inspection state: learn breakpoints (row births) *)
  let breakpoints = ref [] in
  let note_learned ~index ~rows_before_learn =
    if
      Milp.Model.constraint_count (Gen_ilp.model enc) > rows_before_learn
    then breakpoints := (rows_before_learn, index) :: !breakpoints
  in
  let trace = ref [] in
  let ckpt_rev = ref [] in
  (* cost of the last solved relaxation: each iteration's model is a
     relaxation of every later one, so its optimum is a valid global
     lower bound to report on budget exhaustion *)
  let last_cost = ref None in
  let timing () =
    { Synthesis.setup_time;
      solver_time = !solver_total;
      analysis_time = !analysis_total }
  in
  let save_checkpoint () =
    match checkpoint with
    | None -> ()
    | Some path -> (
        let ck =
          { Checkpoint.r_star;
            strategy = Some (strategy_name strategy);
            iterations = List.rev !ckpt_rev }
        in
        match Checkpoint.save path ck with
        | Ok () -> ()
        | Error msg ->
            Logs.warn (fun m -> m "Ilp_mr: checkpoint not saved: %s" msg))
  in
  let emit_iteration it =
    match on_event with
    | None -> ()
    | Some f ->
        f
          { Archex_obs.Event.source = "ilp-mr";
            kind = Archex_obs.Event.Iteration;
            elapsed = Archex_obs.Clock.now () -. t_run;
            data =
              [ ("iteration", float_of_int it.index);
                ("cost", it.cost);
                ("reliability", it.reliability);
                ("new_constraints", float_of_int it.new_constraints);
                ("solver_time", it.solver_time);
                ("analysis_time", it.analysis_time);
                ("nodes", float_of_int it.stats.Milp.Solver.nodes);
                ("conflicts", float_of_int it.stats.Milp.Solver.conflicts)
              ]
          }
  in
  let push it =
    trace := it :: !trace;
    ckpt_rev := checkpoint_iteration it :: !ckpt_rev;
    last_cost := Some it.cost;
    emit_iteration it;
    save_checkpoint ()
  in
  let exhausted error =
    Synthesis.Unfeasible
      ( Synthesis.Budget_exhausted
          { error; incumbent = None; bound = !last_cost },
        List.rev !trace,
        timing () )
  in
  (* The model as this iteration solved it, before Learn_cons extends
     it: the iteration keeps a copy, and certification proves the
     optimum on it. *)
  let solved_model ~cost solution =
    let model = Milp.Model.copy (Gen_ilp.model enc) in
    let cert =
      if certify then
        Some
          (Archex_obs.Trace.with_span tracer "certify" @@ fun () ->
           Archex_cert.certify ?node_budget:cert_node_budget model
             ~incumbent:(Some (cost, solution)))
      else None
    in
    (model, cert)
  in
  (* Deterministic replay of a previous run's prefix: re-certify against
     the model exactly as that iteration solved it, then re-run the
     learning call (deterministic in the recorded analysis figures) so
     the model grows back to its checkpointed shape. *)
  let replay (ck : Checkpoint.t) =
    List.iter
      (fun (cit : Checkpoint.iteration) ->
        Archex_obs.Trace.with_span
          ~attrs:
            (if Archex_obs.Trace.enabled tracer then
               [ ("index", Archex_obs.Json.Num (float_of_int cit.index));
                 ("replayed", Archex_obs.Json.Bool true) ]
             else [])
          tracer "iteration"
        @@ fun () ->
        let config =
          Archlib.Template.config_of_edges template cit.Checkpoint.edges
        in
        let model, cert = solved_model ~cost:cit.cost cit.solution in
        let rows_before_learn =
          Milp.Model.constraint_count (Gen_ilp.model enc)
        in
        (match cit.k_estimate with
        | None -> ()
        | Some _ -> (
            match
              Learn_cons.learn ~strategy learn_state ~config
                ~reliability:cit.reliability ~r_star
            with
            | Learn_cons.Learned _ -> ()
            | Learn_cons.Saturated ->
                raise
                  (Err.E
                     (Err.Internal
                        { stage = "ilp-mr.resume";
                          detail =
                            Printf.sprintf
                              "replay diverged at iteration %d: learning \
                               saturated where the original run learned \
                               (checkpoint does not match this template)"
                              cit.index }))));
        note_learned ~index:cit.index ~rows_before_learn;
        push
          { index = cit.index;
            config;
            cost = cit.cost;
            reliability = cit.reliability;
            per_sink = cit.per_sink;
            k_estimate = cit.k_estimate;
            new_constraints = cit.new_constraints;
            solver_time = 0.;
            analysis_time = 0.;
            stats = replay_stats;
            solution = cit.solution;
            cert;
            learned_rows = Learn_cons.drain_learned learn_state;
            insight = None;
            model })
      ck.Checkpoint.iterations;
    List.length ck.Checkpoint.iterations
  in
  let replayed =
    match resume_from with None -> 0 | Some ck -> replay ck
  in
  (* One iteration of the Algorithm 1 loop, wrapped in its own span; the
     tail call happens outside the span so iteration n+1 is a sibling of
     iteration n, not its child. *)
  let step index =
    let attrs =
      if Archex_obs.Trace.enabled tracer then
        [ ("index", Archex_obs.Json.Num (float_of_int index)) ]
      else []
    in
    Archex_obs.Trace.with_span ~attrs tracer "iteration" @@ fun () ->
    Archex_obs.Metrics.incr
      (Archex_obs.Metrics.counter metrics "mr.iterations");
    match B.check ~stage:"ilp-mr" budget with
    | Error e -> `Done (exhausted e)
    | Ok () -> (
        (* this solve sees the rows below [rows_total]; an inspected
           one also fills a fresh per-row activity table *)
        let rows_total =
          Milp.Model.constraint_count (Gen_ilp.model enc)
        in
        let row_stats =
          if inspect then Some (Milp.Row_stats.create ()) else None
        in
        match
          Gen_ilp.solve ~obs ?on_event ?rows:row_stats
            ?time_limit:(B.slice ~cap:solve_time_limit budget) ~budget enc
        with
        | Gen_ilp.No_solution { stats } ->
            solver_total := !solver_total +. stats.Milp.Solver.elapsed;
            `Done
              (Synthesis.Unfeasible
                 (Synthesis.Proved_infeasible, List.rev !trace, timing ()))
        | Gen_ilp.Exhausted { error; stats } ->
            solver_total := !solver_total +. stats.Milp.Solver.elapsed;
            let bound =
              match (stats.Milp.Solver.best_bound, !last_cost) with
              | Some b, Some c -> Some (Float.max b c)
              | (Some _ as b), None -> b
              | None, b -> b
            in
            `Done
              (Synthesis.Unfeasible
                 ( Synthesis.Budget_exhausted
                     { error; incumbent = None; bound },
                   List.rev !trace,
                   timing () ))
        | Gen_ilp.Solved { solution; config; objective = cost; stats } ->
            solver_total := !solver_total +. stats.Milp.Solver.elapsed;
            let model, cert = solved_model ~cost solution in
            let report =
              Rel_analysis.analyze ~obs ?on_event ~budget ~jobs template
                config
            in
            analysis_total := !analysis_total +. report.Rel_analysis.elapsed;
            let reliability = report.Rel_analysis.worst in
            Archex_obs.Gc_metrics.sample metrics;
            let record ~k_estimate ~new_constraints =
              let insight =
                Option.map
                  (insight ~index ~rows_total ~breakpoints:!breakpoints
                     (Gen_ilp.model enc))
                  row_stats
              in
              push
                { index;
                  config;
                  cost;
                  reliability;
                  per_sink = report.Rel_analysis.per_sink;
                  k_estimate;
                  new_constraints;
                  solver_time = stats.Milp.Solver.elapsed;
                  analysis_time = report.Rel_analysis.elapsed;
                  stats;
                  solution;
                  cert;
                  learned_rows = Learn_cons.drain_learned learn_state;
                  insight;
                  model }
            in
            if Rel_analysis.meets report ~r_star then begin
              record ~k_estimate:None ~new_constraints:0;
              `Done
                (Synthesis.Synthesized
                   ( Synthesis.architecture template config report,
                     List.rev !trace,
                     timing () ))
            end
            else begin
              match
                Learn_cons.learn ~strategy learn_state ~config ~reliability
                  ~r_star
              with
              | Learn_cons.Saturated ->
                  record ~k_estimate:None ~new_constraints:0;
                  `Done
                    (Synthesis.Unfeasible
                       (Synthesis.Saturated, List.rev !trace, timing ()))
              | Learn_cons.Learned { k; new_constraints } ->
                  note_learned ~index ~rows_before_learn:rows_total;
                  record ~k_estimate:(Some k) ~new_constraints;
                  `Continue
            end)
  in
  let rec iterate index =
    if index > max_iterations then
      Synthesis.Unfeasible
        (Synthesis.Iteration_limit max_iterations, List.rev !trace,
         timing ())
    else
      match step index with
      | `Done result -> result
      | `Continue -> iterate (index + 1)
  in
  iterate (replayed + 1)

let certificate_of_trace ~r_star trace =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | it :: rest -> (
        match it.cert with
        | None ->
            Error
              (Printf.sprintf "iteration %d was run without certification"
                 it.index)
        | Some (Error e) ->
            Error
              (Printf.sprintf "iteration %d failed to certify: %s" it.index e)
        | Some (Ok c) -> collect ((c, it.learned_rows) :: acc) rest)
  in
  match trace with
  | [] -> Error "empty trace: nothing to certify"
  | _ -> (
      match collect [] trace with
      | Error _ as e -> e
      | Ok iterations ->
          let final_objective =
            match List.rev trace with it :: _ -> Some it.cost | [] -> None
          in
          Ok (Archex_cert.chain ~r_star ~iterations ~final_objective))
