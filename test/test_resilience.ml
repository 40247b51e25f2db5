(* Tests for the resilience layer: typed failures, global budgets, the
   deterministic fault-injection harness, the reliability degradation
   ladder, checkpoint/resume of ILP-MR, and limit-exhausted solver
   statistics (the silent-truncation regression). *)

module Digraph = Netgraph.Digraph
module Component = Archlib.Component
module Library = Archlib.Library
module Requirement = Archlib.Requirement
module Template = Archlib.Template
module Budget = Archex_resilience.Budget
module Error = Archex_resilience.Error
module Faults = Archex_resilience.Faults
module Verdict = Archex_resilience.Verdict

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)

(* The same 3-layer template as test_core: 2 sources (p=0.1, cost 5),
   3 middles (p=0.1, cost 20), 1 perfect sink.  At r* = 0.05 the loop
   converges in 3 iterations (exact final r ≈ 0.036, bounded upper
   0.04); much below that the learnable redundancy saturates. *)
let small_lib =
  Library.make ~switch_cost:2.
    [ { Library.type_name = "SRC"; cost = 5.; fail_prob = 0.1 };
      { type_name = "MID"; cost = 20.; fail_prob = 0.1 };
      { type_name = "SNK"; cost = 0.; fail_prob = 0. } ]

let small_template () =
  let comp ty name = Library.instantiate small_lib ~type_id:ty ~name in
  let t =
    Template.create
      [| comp 0 "S1"; comp 0 "S2"; comp 1 "M1"; comp 1 "M2"; comp 1 "M3";
         comp 2 "T" |]
  in
  List.iter
    (fun (u, v) -> Template.add_candidate_edge ~switch_cost:2. t u v)
    [ (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 5); (3, 5);
      (4, 5) ];
  Template.set_sources t [ 0; 1 ];
  Template.set_sinks t [ 5 ];
  Template.set_type_chain t [ 0; 1; 2 ];
  Template.add_requirement t (Requirement.require_powered 5);
  Template.add_requirement t
    (Requirement.at_least_incoming ~to_:5 ~from_:[ 2; 3; 4 ] 1);
  List.iter
    (fun m ->
      Template.add_requirement t
        (Requirement.Conditional_connect ([ (m, 5) ], [ (0, m); (1, m) ])))
    [ 2; 3; 4 ];
  t

let full_config t = Template.config_of_edges t (Template.candidate_edges t)

let contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Fault-injection harness                                             *)

let test_fault_plan_at () =
  let plan = Faults.plan [ (Faults.Oracle_failure, Faults.At 2) ] in
  Faults.with_plan plan (fun () ->
      checkb "1st probe quiet" false (Faults.probe Faults.Oracle_failure);
      checkb "2nd probe fires" true (Faults.probe Faults.Oracle_failure);
      checkb "3rd probe quiet" false (Faults.probe Faults.Oracle_failure);
      checkb "other kinds unaffected" false (Faults.probe Faults.Clock_jump);
      check_int "fired once" 1 (Faults.fired_count Faults.Oracle_failure));
  checkb "plan uninstalled afterwards" false (Faults.active ());
  checkb "probe free without a plan" false
    (Faults.probe Faults.Oracle_failure)

let test_fault_plan_every_and_random () =
  let plan =
    Faults.plan
      [ (Faults.Solver_limit, Faults.Every 3);
        (Faults.Clock_jump, Faults.Random_p 0.5) ]
  in
  let fires kind n =
    List.init n (fun _ -> Faults.probe kind)
    |> List.filter (fun b -> b)
    |> List.length
  in
  let a =
    Faults.with_plan plan (fun () ->
        let s = fires Faults.Solver_limit 9 in
        check_int "every 3rd of 9" 3 s;
        fires Faults.Clock_jump 100)
  in
  (* the LCG is shared across kinds, so reproducibility holds for equal
     probe sequences — replay the whole sequence, not just the tail *)
  let b =
    Faults.with_plan plan (fun () ->
        ignore (fires Faults.Solver_limit 9);
        fires Faults.Clock_jump 100)
  in
  check_int "seeded Bernoulli is reproducible" a b;
  checkb "roughly p=0.5" true (a > 20 && a < 80)

let test_fault_parse_spec () =
  (match Faults.parse_spec "oracle-failure@2,clock-jump/3" with
  | Ok plan ->
      Faults.with_plan plan (fun () ->
          checkb "@2 quiet first" false (Faults.probe Faults.Oracle_failure);
          checkb "@2 fires second" true (Faults.probe Faults.Oracle_failure);
          ignore (Faults.probe Faults.Clock_jump);
          ignore (Faults.probe Faults.Clock_jump);
          checkb "/3 fires on the third probe" true
            (Faults.probe Faults.Clock_jump))
  | Error e -> Alcotest.failf "spec should parse: %s" e);
  checkb "unknown kind rejected" true
    (Result.is_error (Faults.parse_spec "flux-capacitor@1"));
  checkb "bad trigger rejected" true
    (Result.is_error (Faults.parse_spec "clock-jump@zero"))

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)

let test_budget_validation () =
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Budget.create: deadline must be positive") (fun () ->
      ignore (Budget.create ~deadline:(-1.) ()));
  Alcotest.check_raises "zero node budget"
    (Invalid_argument "Budget.create: max_nodes must be positive") (fun () ->
      ignore (Budget.create ~max_nodes:0 ()))

let test_budget_nodes_exhaust () =
  let b = Budget.create ~max_nodes:10 () in
  checkb "fresh budget passes" true (Result.is_ok (Budget.check ~stage:"t" b));
  Budget.charge_nodes b 4;
  checkb "under budget passes" true (Result.is_ok (Budget.check ~stage:"t" b));
  Budget.charge_nodes b 6;
  (match Budget.check ~stage:"t" b with
  | Error (Error.Node_budget { used; limit; stage } as e) ->
      check_int "used" 10 used;
      check_int "limit" 10 limit;
      Alcotest.(check string) "stage" "t" stage;
      checkb "budget family" true (Error.is_budget e)
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok () -> Alcotest.fail "exhausted budget passed");
  check_int "remaining clamps at 0" 0 (Option.get (Budget.remaining_nodes b))

let test_budget_injected_clock_jump () =
  let b = Budget.create ~deadline:3600. () in
  let plan = Faults.plan [ (Faults.Clock_jump, Faults.At 1) ] in
  Faults.with_plan plan (fun () ->
      match Budget.check ~stage:"jump" b with
      | Error (Error.Timeout _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
      | Ok () -> Alcotest.fail "injected clock jump ignored");
  checkb "real deadline far away" true
    (Result.is_ok (Budget.check ~stage:"jump" b))

let test_budget_injected_alloc_pressure () =
  let b = Budget.create ~max_heap_words:max_int () in
  let plan = Faults.plan [ (Faults.Alloc_pressure, Faults.At 1) ] in
  Faults.with_plan plan (fun () ->
      match Budget.check ~stage:"alloc" b with
      | Error (Error.Memory_pressure _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
      | Ok () -> Alcotest.fail "injected alloc pressure ignored")

let test_budget_slice () =
  checkb "unlimited has no slice" true (Budget.slice Budget.unlimited = None);
  (match Budget.slice ~cap:7. Budget.unlimited with
  | Some s -> checkf 1e-9 "cap alone" 7. s
  | None -> Alcotest.fail "cap must produce a slice");
  let b = Budget.create ~deadline:100. () in
  match Budget.slice b with
  | Some s -> checkb "half of remaining" true (s > 40. && s <= 50.)
  | None -> Alcotest.fail "deadline must produce a slice"

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)

let test_ladder_exact_by_default () =
  let t = small_template () in
  let report = Archex.Rel_analysis.analyze t (full_config t) in
  checkb "exact" true (Archex.Rel_analysis.is_exact report);
  check_int "no degradation" 0 report.Archex.Rel_analysis.degraded;
  List.iter
    (fun (_, v) -> checkb "verdict exact" true (Verdict.is_exact v))
    report.Archex.Rel_analysis.verdicts

let test_ladder_bounded_on_oracle_failure () =
  let t = small_template () in
  let config = full_config t in
  let exact = Archex.Rel_analysis.analyze t config in
  let plan = Faults.plan [ (Faults.Oracle_failure, Faults.Every 1) ] in
  let degraded =
    Faults.with_plan plan (fun () -> Archex.Rel_analysis.analyze t config)
  in
  check_int "every sink degraded"
    (List.length (Template.sinks t))
    degraded.Archex.Rel_analysis.degraded;
  List.iter
    (fun (_, v) ->
      Alcotest.(check string) "bounded rung" "bounded" (Verdict.method_name v))
    degraded.Archex.Rel_analysis.verdicts;
  (* the ladder must stay conservative: the reported figure can only move
     up from the exact value, so a passing degraded check implies a
     passing exact one *)
  checkb "upper end conservative" true
    (degraded.Archex.Rel_analysis.worst
     >= exact.Archex.Rel_analysis.worst -. 1e-15)

let test_ladder_sampled_when_bdd_ceiling_tiny () =
  let t = small_template () in
  let config = full_config t in
  let budget = Budget.create ~max_bdd_nodes:1 () in
  let r1 = Archex.Rel_analysis.analyze ~budget t config in
  let r2 = Archex.Rel_analysis.analyze ~budget t config in
  checkb "ladder engaged" true (r1.Archex.Rel_analysis.degraded > 0);
  List.iter
    (fun (_, v) ->
      Alcotest.(check string) "sampled rung" "sampled" (Verdict.method_name v))
    r1.Archex.Rel_analysis.verdicts;
  checkb "probability range" true
    (r1.Archex.Rel_analysis.worst >= 0. && r1.Archex.Rel_analysis.worst <= 1.);
  checkf 0. "seeded sampling is reproducible" r1.Archex.Rel_analysis.worst
    r2.Archex.Rel_analysis.worst

let test_monte_carlo_seed () =
  let t = small_template () in
  let fm = Archex.Rel_analysis.fail_model_of_config t (full_config t) in
  let e1 =
    Reliability.Monte_carlo.estimate_sink_failure ~trials:2000 fm ~sink:5
  in
  let e2 =
    Reliability.Monte_carlo.estimate_sink_failure ~trials:2000 fm ~sink:5
  in
  check_int "default seed reproducible" e1.Reliability.Monte_carlo.failures
    e2.Reliability.Monte_carlo.failures;
  checkf 0. "same mean" e1.Reliability.Monte_carlo.mean
    e2.Reliability.Monte_carlo.mean;
  let lo, hi = Reliability.Monte_carlo.confidence_interval e1 in
  checkb "interval clamped and ordered" true (0. <= lo && lo <= hi && hi <= 1.)

(* ------------------------------------------------------------------ *)
(* Input validation                                                    *)

let test_component_violations () =
  let bad =
    { Component.name = ""; type_id = -1; cost = -3.; fail_prob = 1.5;
      capacity = nan }
  in
  check_int "all five violations" 5 (List.length (Component.violations bad));
  let good = Component.make ~name:"ok" ~type_id:0 () in
  check_int "clean component" 0 (List.length (Component.violations good))

let test_validate_all_collects_everything () =
  let bad =
    { Component.name = "B"; type_id = 0; cost = -1.; fail_prob = 2.;
      capacity = 0. }
  in
  let ok = Component.make ~name:"A" ~type_id:0 ~fail_prob:0.1 () in
  let t = Template.create [| ok; bad; ok |] in
  Template.add_candidate_edge ~switch_cost:(-5.) t 0 2;
  Template.set_sources t [ 0 ];
  (* no sinks; the requirement references a non-candidate edge *)
  Template.add_requirement t
    (Requirement.Edge_card ([ (1, 2) ], Requirement.Ge, 1));
  match Template.validate_all t with
  | Ok () -> Alcotest.fail "hostile template accepted"
  | Error violations ->
      let has frag = List.exists (fun v -> contains v frag) violations in
      checkb "collects cost violation" true (has "cost");
      checkb "collects probability violation" true (has "probability");
      checkb "collects switch cost violation" true (has "switch cost");
      checkb "collects missing sinks" true (has "no sinks");
      checkb "collects requirement reference" true (has "non-candidate");
      checkb "at least five violations" true (List.length violations >= 5)

(* ------------------------------------------------------------------ *)
(* Silent truncation: exhaustion is never infeasibility                *)

let test_exhaustion_is_not_infeasibility () =
  let t = small_template () in
  let budget = Budget.create ~max_nodes:1 () in
  Budget.charge_nodes budget 1;
  match Archex.Ilp_mr.run ~budget t ~r_star:0.01 with
  | Archex.Synthesis.Unfeasible
      (Archex.Synthesis.Budget_exhausted { error; incumbent; bound = _ }, _, _)
    ->
      checkb "typed budget error" true (Error.is_budget error);
      checkb "no incumbent claimed" true (incumbent = None)
  | Archex.Synthesis.Unfeasible (reason, _, _) ->
      Alcotest.failf "misreported as %s"
        (Archex.Synthesis.failure_reason_code reason)
  | Archex.Synthesis.Synthesized _ ->
      Alcotest.fail "exhausted budget synthesized?"

let test_solver_limit_keeps_bound_pb () =
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  match
    Milp.Solver.solve ~budget:(Budget.create ~max_nodes:1 ())
      (Archex.Gen_ilp.model enc)
  with
  | Milp.Solver.Limit_reached _, stats -> (
      match stats.Milp.Solver.best_bound with
      | Some b ->
          checkb "finite bound at the limit" true (Float.is_finite b);
          checkb "bound below the optimum" true (b >= 0. && b <= 29. +. 1e-9)
      | None -> Alcotest.fail "limit-hit PB solve lost its lower bound")
  | Milp.Solver.Optimal _, _ ->
      Alcotest.fail "1-node PB solve should not close the search"
  | _ -> Alcotest.fail "unexpected outcome"

let test_gen_ilp_types_the_outcomes () =
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  let budget = Budget.create ~max_nodes:1 () in
  Budget.charge_nodes budget 1;
  (match Archex.Gen_ilp.solve ~budget enc with
  | Archex.Gen_ilp.Exhausted { error; _ } ->
      checkb "exhaustion typed" true (Error.is_budget error)
  | Archex.Gen_ilp.No_solution _ ->
      Alcotest.fail "exhaustion misread as infeasibility (silent truncation)"
  | Archex.Gen_ilp.Solved _ ->
      Alcotest.fail "solved with a spent node budget?");
  (* a genuinely infeasible model is still proved infeasible *)
  let t2 = small_template () in
  Template.add_requirement t2 (Requirement.forbid_edge 2 5);
  Template.add_requirement t2 (Requirement.forbid_edge 3 5);
  Template.add_requirement t2 (Requirement.forbid_edge 4 5);
  let enc2 = Archex.Gen_ilp.encode t2 in
  match Archex.Gen_ilp.solve enc2 with
  | Archex.Gen_ilp.No_solution _ -> ()
  | _ -> Alcotest.fail "expected a proof of infeasibility"

(* ------------------------------------------------------------------ *)
(* Fault matrix: every injected fault class terminates typed           *)

let test_fault_matrix_terminates_typed () =
  let run_under kind =
    let t = small_template () in
    let budget = Budget.create ~deadline:3600. ~max_heap_words:max_int () in
    let plan = Faults.plan [ (kind, Faults.Every 1) ] in
    Faults.with_plan plan (fun () ->
        Archex.Ilp_mr.run ~budget t ~r_star:0.05)
  in
  (* the serve-layer kinds probe only in the daemon (admission, job
     runner, event fan-out — test_serve exercises them); injected into a
     direct synthesis run they must be inert, not break it *)
  let serve_only = function
    | Faults.Queue_overload | Faults.Job_crash | Faults.Slow_client -> true
    | Faults.Clock_jump | Faults.Oracle_failure | Faults.Solver_limit
    | Faults.Alloc_pressure -> false
  in
  List.iter
    (fun kind ->
      match run_under kind with
      | Archex.Synthesis.Synthesized _ ->
          (* oracle failures degrade the analysis but the loop still
             converges conservatively — a legitimate typed outcome *)
          checkb "only oracle/serve-layer faults may still synthesize" true
            (kind = Faults.Oracle_failure || serve_only kind)
      | Archex.Synthesis.Unfeasible (reason, _, _) ->
          checkb
            (Printf.sprintf "%s yields a typed budget failure"
               (Faults.kind_name kind))
            true
            (Archex.Synthesis.is_budget_failure reason
            && not (serve_only kind)))
    Faults.all_kinds

let test_mr_converges_conservatively_under_oracle_failure () =
  let t = small_template () in
  let plan = Faults.plan [ (Faults.Oracle_failure, Faults.Every 1) ] in
  match
    Faults.with_plan plan (fun () -> Archex.Ilp_mr.run t ~r_star:0.05)
  with
  | Archex.Synthesis.Synthesized (arch, trace, _) ->
      checkb "meets the target on the conservative figure" true
        (arch.Archex.Synthesis.reliability <= 0.05 +. 1e-12);
      checkb "did at least one iteration" true (trace <> [])
  | Archex.Synthesis.Unfeasible (reason, _, _) ->
      Alcotest.failf "degraded run should still converge, got %s"
        (Archex.Synthesis.failure_reason_code reason)

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)

let tmp_path name = Filename.temp_file ("archex-test-" ^ name) ".json"

let test_checkpoint_roundtrip () =
  let ck =
    { Archex.Checkpoint.r_star = 0.01;
      strategy = Some "estimated";
      iterations =
        [ { Archex.Checkpoint.index = 1;
            solution = [| 0.; 1.; 1. |];
            edges = [ (0, 2); (2, 5) ];
            cost = 27.;
            reliability = 0.19;
            per_sink = [ (5, 0.19) ];
            k_estimate = Some 1;
            new_constraints = 2 } ] }
  in
  let path = tmp_path "roundtrip" in
  (match Archex.Checkpoint.save path ck with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  (match Archex.Checkpoint.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok ck' ->
      checkf 0. "r_star" ck.Archex.Checkpoint.r_star
        ck'.Archex.Checkpoint.r_star;
      checkb "strategy" true
        (ck'.Archex.Checkpoint.strategy = Some "estimated");
      let it = List.hd ck'.Archex.Checkpoint.iterations in
      check_int "index" 1 it.Archex.Checkpoint.index;
      checkb "edges" true (it.Archex.Checkpoint.edges = [ (0, 2); (2, 5) ]);
      checkb "solution" true
        (it.Archex.Checkpoint.solution = [| 0.; 1.; 1. |]);
      checkb "k" true (it.Archex.Checkpoint.k_estimate = Some 1));
  Sys.remove path;
  checkb "corrupt input rejected" true
    (Result.is_error (Archex.Checkpoint.of_string "{\"format\":\"nope\"}"))

let arch_signature = function
  | Archex.Synthesis.Synthesized (arch, trace, _) ->
      ( arch.Archex.Synthesis.cost,
        List.sort compare (Digraph.edges arch.Archex.Synthesis.config),
        List.length trace )
  | Archex.Synthesis.Unfeasible (reason, _, _) ->
      Alcotest.failf "run unfeasible: %s"
        (Archex.Synthesis.failure_reason_code reason)

let test_kill_and_resume_any_boundary () =
  let path = tmp_path "resume" in
  let t = small_template () in
  let full = Archex.Ilp_mr.run ~checkpoint:path t ~r_star:0.05 in
  let cost, edges, n = arch_signature full in
  let ck =
    match Archex.Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "load: %s" e
  in
  check_int "checkpoint has every iteration" n
    (List.length ck.Archex.Checkpoint.iterations);
  (* simulate a kill at every iteration boundary: resume from the first k
     iterations and demand the identical final architecture *)
  let take k xs = List.filteri (fun i _ -> i < k) xs in
  for k = 0 to n - 1 do
    let prefix =
      { ck with
        Archex.Checkpoint.iterations = take k ck.Archex.Checkpoint.iterations
      }
    in
    let resumed =
      Archex.Ilp_mr.run ~resume_from:prefix (small_template ())
        ~r_star:prefix.Archex.Checkpoint.r_star
    in
    let cost', edges', n' = arch_signature resumed in
    checkf 1e-9 (Printf.sprintf "cost after resume at %d" k) cost cost';
    checkb (Printf.sprintf "edges after resume at %d" k) true (edges = edges');
    check_int (Printf.sprintf "iteration count after resume at %d" k) n n'
  done;
  Sys.remove path

(* A checkpoint replays only against its own r*: any other target would
   replay learning decisions that target never made. *)
let test_resume_rejects_other_r_star () =
  let path = tmp_path "resume-r-star" in
  ignore (Archex.Ilp_mr.run ~checkpoint:path (small_template ()) ~r_star:0.05);
  let ck =
    match Archex.Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "load: %s" e
  in
  Sys.remove path;
  match
    Archex.Ilp_mr.run ~resume_from:ck (small_template ())
      ~r_star:(2. *. ck.Archex.Checkpoint.r_star)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "replayed a checkpoint against another r*"

(* Checkpoints written while the solver still had several backends carry
   a "backend" name, "lp-bb" included.  Such a file must still load, and
   resuming it must reach the uninterrupted run's answer. *)
let test_checkpoint_legacy_backend_key () =
  let path = tmp_path "legacy" in
  let t = small_template () in
  let full = Archex.Ilp_mr.run ~checkpoint:path t ~r_star:0.05 in
  let cost, edges, n = arch_signature full in
  checkb "needs at least two iterations to resume mid-run" true (n >= 2);
  let legacy =
    match Archex.Checkpoint.load path with
    | Error e -> Alcotest.failf "load: %s" e
    | Ok ck -> (
        let ck =
          { ck with
            Archex.Checkpoint.iterations =
              List.filteri (fun i _ -> i < 1) ck.Archex.Checkpoint.iterations
          }
        in
        match Archex.Checkpoint.to_json ck with
        | Archex_obs.Json.Obj fields ->
            Archex_obs.Json.to_string
              (Archex_obs.Json.Obj
                 (fields @ [ ("backend", Archex_obs.Json.Str "lp-bb") ]))
        | _ -> Alcotest.fail "checkpoint JSON is not an object")
  in
  Sys.remove path;
  match Archex.Checkpoint.of_string legacy with
  | Error e -> Alcotest.failf "legacy checkpoint rejected: %s" e
  | Ok from ->
      let cost', edges', n' =
        arch_signature
          (Archex.Ilp_mr.run ~resume_from:from (small_template ())
             ~r_star:from.Archex.Checkpoint.r_star)
      in
      checkf 1e-9 "cost after resume" cost cost';
      checkb "edges after resume" true (edges = edges');
      check_int "iteration count after resume" n n'

let test_resumed_run_certifies () =
  let path = tmp_path "resume-cert" in
  let t = small_template () in
  let full =
    Archex.Ilp_mr.run ~certify:true ~checkpoint:path t ~r_star:0.05
  in
  let _ = arch_signature full in
  let ck =
    match Archex.Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "load: %s" e
  in
  let n = List.length ck.Archex.Checkpoint.iterations in
  checkb "needs at least two iterations to test a mid-run kill" true (n >= 2);
  let prefix =
    { ck with
      Archex.Checkpoint.iterations =
        List.filteri (fun i _ -> i < n - 1) ck.Archex.Checkpoint.iterations }
  in
  (match
     Archex.Ilp_mr.run ~certify:true ~resume_from:prefix (small_template ())
       ~r_star:prefix.Archex.Checkpoint.r_star
   with
  | Archex.Synthesis.Synthesized (_, trace, _) -> (
      match Archex.Ilp_mr.certificate_of_trace ~r_star:0.05 trace with
      | Error e -> Alcotest.failf "chain assembly: %s" e
      | Ok chain -> (
          match Archex_cert.check_chain chain with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "resumed chain fails the checker: %s" e))
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "resumed run unfeasible");
  Sys.remove path

let test_budget_exhausted_reports_bound () =
  let t = small_template () in
  (* the first iteration solves, then the injected solver fault exhausts
     the second: the reported bound must carry the last relaxation's cost *)
  let plan = Faults.plan [ (Faults.Solver_limit, Faults.At 2) ] in
  match
    Faults.with_plan plan (fun () -> Archex.Ilp_mr.run t ~r_star:0.01)
  with
  | Archex.Synthesis.Unfeasible
      (Archex.Synthesis.Budget_exhausted { bound; _ }, trace, _) ->
      checkb "one completed iteration" true (List.length trace >= 1);
      (match bound with
      | Some b -> checkb "bound from the last relaxation" true (b > 0.)
      | None -> Alcotest.fail "exhaustion dropped the proven bound")
  | Archex.Synthesis.Unfeasible (reason, _, _) ->
      Alcotest.failf "wrong reason %s"
        (Archex.Synthesis.failure_reason_code reason)
  | Archex.Synthesis.Synthesized _ ->
      Alcotest.fail "solver fault on iteration 2 ignored"

let () =
  Alcotest.run "resilience"
    [ ( "faults",
        [ Alcotest.test_case "plan @N" `Quick test_fault_plan_at;
          Alcotest.test_case "plan /N and ~P" `Quick
            test_fault_plan_every_and_random;
          Alcotest.test_case "parse_spec" `Quick test_fault_parse_spec ] );
      ( "budget",
        [ Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "node exhaustion" `Quick
            test_budget_nodes_exhaust;
          Alcotest.test_case "injected clock jump" `Quick
            test_budget_injected_clock_jump;
          Alcotest.test_case "injected alloc pressure" `Quick
            test_budget_injected_alloc_pressure;
          Alcotest.test_case "slice" `Quick test_budget_slice ] );
      ( "ladder",
        [ Alcotest.test_case "exact by default" `Quick
            test_ladder_exact_by_default;
          Alcotest.test_case "bounded on oracle failure" `Quick
            test_ladder_bounded_on_oracle_failure;
          Alcotest.test_case "sampled under tiny BDD ceiling" `Quick
            test_ladder_sampled_when_bdd_ceiling_tiny;
          Alcotest.test_case "Monte Carlo seeding" `Quick
            test_monte_carlo_seed ] );
      ( "validation",
        [ Alcotest.test_case "component violations" `Quick
            test_component_violations;
          Alcotest.test_case "validate_all collects everything" `Quick
            test_validate_all_collects_everything ] );
      ( "truncation",
        [ Alcotest.test_case "exhaustion is not infeasibility" `Quick
            test_exhaustion_is_not_infeasibility;
          Alcotest.test_case "PB keeps bound at limit" `Quick
            test_solver_limit_keeps_bound_pb;
          Alcotest.test_case "Gen_ilp types the outcomes" `Quick
            test_gen_ilp_types_the_outcomes ] );
      ( "fault-matrix",
        [ Alcotest.test_case "every class terminates typed" `Quick
            test_fault_matrix_terminates_typed;
          Alcotest.test_case "MR converges under degraded oracle" `Quick
            test_mr_converges_conservatively_under_oracle_failure ] );
      ( "checkpoint",
        [ Alcotest.test_case "round trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "kill and resume at any boundary" `Quick
            test_kill_and_resume_any_boundary;
          Alcotest.test_case "resume rejects another r*" `Quick
            test_resume_rejects_other_r_star;
          Alcotest.test_case "resumed run certifies" `Quick
            test_resumed_run_certifies;
          Alcotest.test_case "legacy backend key loads" `Quick
            test_checkpoint_legacy_backend_key;
          Alcotest.test_case "exhaustion reports the proven bound" `Quick
            test_budget_exhausted_reports_bound ] ) ]
