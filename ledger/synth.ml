(* One synthesis through the public API, its outcome, and the correctness
   oracle behind the ledger's [failed] count. *)

module J = Archex_obs.Json
module S = Archex.Synthesis

type outcome = {
  verdict : string;  (** ["synthesized"] or {!S.failure_reason_code} *)
  cost : float option;
  config : Netgraph.Digraph.t option;
  costs : float list;  (** per ILP-MR iteration; the one solve on ILP-AR *)
  unproven : int;  (** solves that stopped at the limit, unproven *)
  decisions : int;  (** ILP-MR: summed [run_stats] *)
  conflicts : int;
  rows : int;  (** ILP-AR: rows of the compiled model *)
  approx : float;  (** ILP-AR: the r~ estimate of the result *)
  chain : (Archex_cert.chain_summary, string) result option;
      (** certified jobs: the checked certificate chain *)
}

let verdict_of = function
  | S.Synthesized _ -> "synthesized"
  | S.Unfeasible (reason, _, _) -> S.failure_reason_code reason

let arch_of = function
  | S.Synthesized (arch, _, _) -> (Some arch.S.cost, Some arch.S.config)
  | S.Unfeasible _ -> (None, None)

(* The timed call: [Ilp_mr.run] / [Ilp_ar.run] with library defaults; a
   certified job also assembles and checks its certificate chain, which is
   what a certifying user runs.  The traced run passes its observers,
   which the library only reports to, and the chain check gets a span of
   its own, [check]. *)
let run ?(obs = Archex_obs.Ctx.null) ?on_event template (j : Jobs.job) =
  match j.algo with
  | Jobs.Mr ->
      let result =
        Archex.Ilp_mr.run ~obs ?on_event ~solve_time_limit:Jobs.time_limit
          ~certify:j.certify template ~r_star:j.r_star
      in
      let trace =
        match result with S.Synthesized (_, t, _) | S.Unfeasible (_, t, _) -> t
      in
      let chain =
        match result with
        | S.Synthesized _ when j.certify ->
            Some
              (Archex_obs.Trace.with_span (Archex_obs.Ctx.trace obs) "check"
                 (fun () ->
                   Result.bind
                     (Archex.Ilp_mr.certificate_of_trace ~r_star:j.r_star
                        trace)
                     Archex_cert.check_chain))
        | _ -> None
      in
      let sum f =
        List.fold_left (fun acc it -> acc + f it.Archex.Ilp_mr.stats) 0 trace
      in
      let cost, config = arch_of result in
      { verdict = verdict_of result;
        cost;
        config;
        costs = List.map (fun it -> it.Archex.Ilp_mr.cost) trace;
        unproven =
          List.length
            (List.filter
               (fun it ->
                 it.Archex.Ilp_mr.stats.Milp.Solver.best_bound
                 <> Some it.Archex.Ilp_mr.cost)
               trace);
        decisions = sum (fun s -> s.Milp.Solver.nodes);
        conflicts = sum (fun s -> s.Milp.Solver.conflicts);
        rows = 0;
        approx = 0.;
        chain }
  | Jobs.Ar ->
      let result =
        Archex.Ilp_ar.run ~obs ?on_event ~time_limit:Jobs.time_limit template
          ~r_star:j.r_star
      in
      let info, timing =
        match result with
        | S.Synthesized (_, i, t) | S.Unfeasible (_, i, t) -> (i, t)
      in
      let cost, config = arch_of result in
      { verdict = verdict_of result;
        cost;
        config;
        costs = Option.to_list cost;
        (* Ilp_ar.run keeps no run_stats: a solve that used its whole
           limit is the limit-hit signal *)
        unproven =
          (if timing.S.solver_time >= Jobs.time_limit then 1 else 0);
        decisions = 0;
        conflicts = 0;
        rows = info.Archex.Ilp_ar.constraint_count;
        approx = info.Archex.Ilp_ar.approx_estimate;
        chain = None }

(* What must repeat exactly when the same job runs again. *)
let summary o = (o.verdict, o.costs, o.decisions, o.conflicts, o.rows)

let exceeds r ~r_star = r > r_star *. (1. +. 1e-9)

(* Worst-sink failure recomputed with the factoring engine, independent of
   the BDD engine the synthesis loop uses. *)
let factoring_worst template config =
  let net = Archex.Rel_analysis.fail_model_of_config template config in
  List.fold_left
    (fun acc sink ->
      Float.max acc
        (Reliability.Exact.sink_failure ~engine:Reliability.Exact.Factoring
           net ~sink))
    0. (Archlib.Template.sinks template)

(* Every reason the outcome is wrong; [] when it is correct.  Saturated and
   Proved_infeasible are answers: a small template cannot meet every r*. *)
let check template (j : Jobs.job) = function
  | Error msg -> [ "raised " ^ msg ]
  | Ok o ->
      let errs = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
      if o.verdict = "iteration-limit" || o.verdict = "budget-exhausted" then
        fail "verdict %s" o.verdict;
      if o.unproven > 0 then
        fail "%d solve(s) stopped at the %gs limit unproven" o.unproven
          Jobs.time_limit;
      (match (o.cost, o.config) with
      | Some cost, Some config -> (
          let priced = Archlib.Template.configuration_cost template config in
          if Float.abs (priced -. cost) > 1e-9 *. Float.max 1. cost then
            fail "reported cost %g but the configuration costs %g" cost priced;
          match j.algo with
          | Jobs.Mr ->
              let r = factoring_worst template config in
              if exceeds r ~r_star:j.r_star then
                fail "factoring engine: worst-sink failure %.3e > r* %g" r
                  j.r_star
          | Jobs.Ar ->
              if exceeds o.approx ~r_star:j.r_star then
                fail "r~ %.3e > r* %g" o.approx j.r_star)
      | _ -> ());
      (match o.chain with
      | Some (Error e) -> fail "certificate chain rejected: %s" e
      | Some (Ok _) | None -> ());
      List.rev !errs

(* ------------------------------------------------------------------ *)
(* Expected answers: expected/<workload>-seed1.json                    *)

(* The part of an outcome the expected file pins down. *)
let answer = function
  | Error msg -> [ ("verdict", J.Str ("raised " ^ msg)) ]
  | Ok o ->
      [ ("verdict", J.Str o.verdict);
        ("cost", match o.cost with Some c -> J.Num c | None -> J.Null);
        ("iterations", J.Num (float_of_int (List.length o.costs)));
        ("costs", J.Arr (List.map (fun c -> J.Num c) o.costs)) ]

let expected_json ~workload ~seed jobs outcomes =
  let entry j o = J.to_string (J.Obj (("id", J.Str (Jobs.id j)) :: answer o)) in
  Printf.sprintf "{\"workload\": %S, \"seed\": %d, \"jobs\": [\n%s\n]}\n"
    workload seed
    (String.concat ",\n" (List.map2 entry jobs outcomes))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The expected entries, when [path] exists and lists exactly [jobs]; the
   jobs of a seed with no expected file are checked by the oracle alone. *)
let load_expected path jobs =
  if not (Sys.file_exists path) then None
  else
    match J.of_string (read_file path) with
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
    | Ok doc -> (
        match J.mem "jobs" doc with
        | Some (J.Arr entries)
          when List.map (J.mem "id") entries
               = List.map (fun j -> Some (J.Str (Jobs.id j))) jobs ->
            Some entries
        | _ -> None)

let against_expected entry o =
  let want = match entry with J.Obj (_id :: fields) -> J.Obj fields | e -> e in
  let got = J.Obj (answer o) in
  if J.equal want got then []
  else
    [ Printf.sprintf "expected %s, got %s" (J.to_string want)
        (J.to_string got) ]
