(* Tests for incremental (persistent-session) PB solving across ILP-MR
   iterations: the differential guarantee that an incremental run is
   bit-identical to a scratch run (architecture, cost, iteration count),
   certificate chains from incremental runs, portfolio parity, and
   checkpoint/resume in incremental mode; plus regression tests for the
   reduce_db reason-pinning fix, per-invocation delta stats, the
   activity-preserving heap rebuild, and the presolve x session typed
   rejection. *)

module Model = Milp.Model
module Lin_expr = Milp.Lin_expr
module Solver = Milp.Solver
module Pb = Milp.Pb_solver
module Var_heap = Milp.Var_heap
module Digraph = Netgraph.Digraph
module Error = Archex_resilience.Error
module J = Archex_obs.Json
module Cert = Archex_cert

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let arch_signature what = function
  | Archex.Synthesis.Synthesized (arch, trace, _) ->
      ( arch.Archex.Synthesis.cost,
        List.sort compare (Digraph.edges arch.Archex.Synthesis.config),
        List.length trace,
        List.map (fun it -> it.Archex.Ilp_mr.cost) trace )
  | Archex.Synthesis.Unfeasible (reason, _, _) ->
      Alcotest.failf "%s unfeasible: %s" what
        (Archex.Synthesis.failure_reason_code reason)

let trace_of what = function
  | Archex.Synthesis.Synthesized (_, trace, _) -> trace
  | Archex.Synthesis.Unfeasible (reason, _, _) ->
      Alcotest.failf "%s unfeasible: %s" what
        (Archex.Synthesis.failure_reason_code reason)

(* Total PB search effort of a whole run: the [pb.conflicts] metric,
   which every PB search (a solve, a core-guided step) accumulates
   into. *)
let run_conflicts f =
  let metrics = Archex_obs.Metrics.create () in
  let obs = Archex_obs.Ctx.make ~metrics () in
  let result = f ~obs in
  ( result,
    int_of_float
      (Option.value (Archex_obs.Metrics.value metrics "pb.conflicts")
         ~default:0.) )

(* ------------------------------------------------------------------ *)
(* Differential: incremental == scratch, bit for bit                   *)

(* The core contract: carrying learned clauses, activities, phases and
   objective floors across iterations must not change the costs found —
   only how fast.  Every iteration's optimum, the iteration count and the
   final cost are identical; the concrete architecture may differ only
   between equal-cost optima (degenerate ties, e.g. symmetric generators),
   where both runs hold an optimality certificate.  Checked over the
   smoke instance and the scaling family. *)
let test_incremental_matches_scratch () =
  let cases =
    [ ("base", (Eps.Eps_template.base ()).Eps.Eps_template.template, 2e-4);
      ("base-tight",
       (Eps.Eps_template.base ()).Eps.Eps_template.template, 1e-5);
      ("g2", (Eps.Eps_template.make ~generators:2).Eps.Eps_template.template,
       1e-4);
      ("g3", (Eps.Eps_template.make ~generators:3).Eps.Eps_template.template,
       1e-4) ]
  in
  List.iter
    (fun (name, t, r_star) ->
      let scratch = Archex.Ilp_mr.run t ~r_star in
      let inc = Archex.Ilp_mr.run ~incremental:true t ~r_star in
      let c, e, n, per = arch_signature (name ^ " scratch") scratch in
      let c', e', n', per' = arch_signature (name ^ " incremental") inc in
      checkf 0. (name ^ ": cost identical") c c';
      checkb (name ^ ": edges differ only on cost ties") true
        (e = e' || c = c');
      check_int (name ^ ": iteration count identical") n n';
      checkb (name ^ ": per-iteration costs identical") true (per = per');
      match inc with
      | Archex.Synthesis.Synthesized (arch, _, _) ->
          checkb (name ^ ": requirement met") true
            (arch.Archex.Synthesis.reliability <= r_star)
      | Archex.Synthesis.Unfeasible _ -> assert false)
    cases

(* Infeasibility parity: when the target is out of the template's reach,
   both modes must agree on the typed saturation verdict. *)
let test_incremental_unfeasible_parity () =
  let t = (Eps.Eps_template.make ~generators:1).Eps.Eps_template.template in
  let code = function
    | Archex.Synthesis.Unfeasible (reason, _, _) ->
        Archex.Synthesis.failure_reason_code reason
    | Archex.Synthesis.Synthesized _ -> "synthesized"
  in
  let a = code (Archex.Ilp_mr.run t ~r_star:1e-4) in
  let b = code (Archex.Ilp_mr.run ~incremental:true t ~r_star:1e-4) in
  checkb "scratch saturates" true (a = "saturated");
  checkb "incremental agrees" true (b = a)

(* Regression (reduce_db reason pinning): a pinned reason row must never
   be dropped by clause-database reduction while it is the antecedent of
   a trail literal; the observable symptom of the old bug was conflict
   blowup and, in the worst case, unsound backjumps.  The smoke instance
   (base, r* = 2e-6) learns under 2,000 clauses in all and never reaches
   reduce_db, so it only checks the optimum.  The guard runs on Fig. 2
   (base, r* = 2e-10), where the session reduces its database about 40
   times with learned reasons pinned on the trail: the per-iteration
   optima must be scratch's, and the session's total conflicts must not
   exceed 58,835, its deterministic count when the guard was set. *)
let test_incremental_reduce_db_guard () =
  let t = (Eps.Eps_template.base ()).Eps.Eps_template.template in
  let r_star = 2e-6 in
  let c, _, _, _ = arch_signature "scratch" (Archex.Ilp_mr.run t ~r_star) in
  let c', _, _, _ =
    arch_signature "incremental"
      (Archex.Ilp_mr.run ~incremental:true t ~r_star)
  in
  checkf 0. "identical optimum" c c';
  let fig2, conflicts =
    run_conflicts (fun ~obs ->
        Archex.Ilp_mr.run ~obs ~incremental:true t ~r_star:2e-10)
  in
  let _, _, _, per = arch_signature "Fig. 2 incremental" fig2 in
  checkb "Fig. 2 per-iteration costs as scratch" true
    (per = [ 13007.; 27015.; 31015. ]);
  checkb
    (Printf.sprintf "Fig. 2 conflicts bounded (%d <= 58835)" conflicts)
    true (conflicts <= 58_835)

(* ------------------------------------------------------------------ *)
(* Certificates from incremental runs                                  *)

let test_incremental_cert_chain () =
  let t = (Eps.Eps_template.base ()).Eps.Eps_template.template in
  let r_star = 2e-4 in
  let result = Archex.Ilp_mr.run ~certify:true ~incremental:true t ~r_star in
  let trace = trace_of "certified incremental" result in
  List.iter
    (fun it ->
      match it.Archex.Ilp_mr.cert with
      | Some (Ok cert) ->
          (* provenance stamp: which solve of the session, how many
             learned rows it inherited *)
          (match J.mem "session" cert with
          | Some (J.Obj _ as s) ->
              checkb
                (Printf.sprintf "iteration %d solve_index"
                   it.Archex.Ilp_mr.index)
                true
                (match J.mem "solve_index" s with
                | Some (J.Num i) ->
                    int_of_float i = it.Archex.Ilp_mr.index
                | _ -> false);
              checkb
                (Printf.sprintf "iteration %d carried_learned >= 0"
                   it.Archex.Ilp_mr.index)
                true
                (match J.mem "carried_learned" s with
                | Some (J.Num n) -> n >= 0.
                | _ -> false)
          | _ ->
              Alcotest.failf "iteration %d cert lacks the session stamp"
                it.Archex.Ilp_mr.index)
      | Some (Error e) ->
          Alcotest.failf "iteration %d failed to certify: %s"
            it.Archex.Ilp_mr.index e
      | None ->
          Alcotest.failf "iteration %d has no certificate"
            it.Archex.Ilp_mr.index)
    trace;
  match Archex.Ilp_mr.certificate_of_trace ~r_star trace with
  | Error e -> Alcotest.failf "chain assembly failed: %s" e
  | Ok chain -> (
      match Cert.check_chain chain with
      | Error e -> Alcotest.failf "chain check failed: %s" e
      | Ok s -> check_int "one cert per iteration" (List.length trace)
                  s.Cert.iterations)

(* ------------------------------------------------------------------ *)
(* Portfolio parity in incremental mode                                *)

(* The portfolio's PB racer runs through the session while the LP and
   core-guided racers solve from scratch; whoever wins, the answer must
   equal the serial scratch answer — for every family size. *)
let test_portfolio_parity_incremental () =
  List.iter
    (fun (g, r_star) ->
      let t = (Eps.Eps_template.make ~generators:g).Eps.Eps_template.template
      in
      let scratch = Archex.Ilp_mr.run t ~r_star in
      let inc =
        Archex.Ilp_mr.run ~backend:Solver.Portfolio ~incremental:true t
          ~r_star
      in
      let c, _, n, _ = arch_signature (Printf.sprintf "g%d scratch" g)
                         scratch in
      let c', _, n', _ =
        arch_signature (Printf.sprintf "g%d portfolio+incremental" g) inc
      in
      checkf 0. (Printf.sprintf "g=%d cost identical" g) c c';
      check_int (Printf.sprintf "g=%d iterations identical" g) n n')
    [ (1, 1e-3); (2, 1e-4); (3, 1e-4) ]

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume in incremental mode                             *)

let test_checkpoint_resume_incremental () =
  let path = Filename.temp_file "archex-test-inc-resume" ".json" in
  let t () = (Eps.Eps_template.base ()).Eps.Eps_template.template in
  let r_star = 2e-4 in
  let full =
    Archex.Ilp_mr.run ~incremental:true ~checkpoint:path (t ()) ~r_star
  in
  let cost, edges, n, _ = arch_signature "full incremental" full in
  let ck =
    match Archex.Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "load: %s" e
  in
  check_int "checkpoint has every iteration" n
    (List.length ck.Archex.Checkpoint.iterations);
  (* kill at every iteration boundary; the resumed run replays the prefix
     into a fresh session and continues incrementally *)
  let take k xs = List.filteri (fun i _ -> i < k) xs in
  for k = 0 to n - 1 do
    let prefix =
      { ck with
        Archex.Checkpoint.iterations = take k ck.Archex.Checkpoint.iterations
      }
    in
    let resumed =
      Archex.Ilp_mr.resume ~incremental:true (t ()) ~from:prefix
    in
    let cost', edges', n', _ =
      arch_signature (Printf.sprintf "resume at %d" k) resumed
    in
    checkf 1e-9 (Printf.sprintf "cost after resume at %d" k) cost cost';
    checkb (Printf.sprintf "edges after resume at %d" k) true (edges = edges');
    check_int (Printf.sprintf "iterations after resume at %d" k) n n'
  done;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Delta stats: per-invocation numbers sum to the session totals       *)

let session_model_base () =
  let m = Model.create () in
  let xs = Model.bool_vars m 8 in
  Model.add_constraint m
    (Lin_expr.sum (Array.to_list (Array.map Lin_expr.var xs)))
    Model.Ge 3.;
  Model.add_constraint m
    (Lin_expr.of_terms [ (xs.(0), 1.); (xs.(1), 1.) ])
    Model.Ge 1.;
  Model.set_objective m
    (Lin_expr.of_terms
       (Array.to_list (Array.mapi (fun i x -> (x, float_of_int (i + 1))) xs)));
  (m, xs)

let test_session_delta_stats_sum () =
  let m, xs = session_model_base () in
  let sess = Pb.Session.create m in
  let solved = ref [] in
  let solve_once () =
    match Pb.Session.solve sess with
    | Pb.Optimal { objective; _ }, stats ->
        solved := stats :: !solved;
        objective
    | _ -> Alcotest.fail "expected optimal"
  in
  let o1 = solve_once () in
  checkf 1e-9 "first optimum" 6. o1;
  (* grow the model monotonically and re-solve, twice *)
  Model.add_constraint m
    (Lin_expr.of_terms [ (xs.(6), 1.); (xs.(7), 1.) ])
    Model.Ge 1.;
  let o2 = solve_once () in
  checkb "optimum monotone after row 1" true (o2 >= o1 -. 1e-9);
  Model.add_constraint m
    (Lin_expr.of_terms [ (xs.(4), 1.); (xs.(5), 1.); (xs.(6), 1.) ])
    Model.Ge 2.;
  let o3 = solve_once () in
  checkb "optimum monotone after row 2" true (o3 >= o2 -. 1e-9);
  let sum f = List.fold_left (fun a s -> a + f s) 0 !solved in
  let tot = Pb.Session.totals sess in
  check_int "decisions sum to totals" tot.Pb.decisions
    (sum (fun s -> s.Pb.decisions));
  check_int "propagations sum to totals" tot.Pb.propagations
    (sum (fun s -> s.Pb.propagations));
  check_int "conflicts sum to totals" tot.Pb.conflicts
    (sum (fun s -> s.Pb.conflicts));
  check_int "restarts sum to totals" tot.Pb.restarts
    (sum (fun s -> s.Pb.restarts));
  check_int "learned sum to totals" tot.Pb.learned
    (sum (fun s -> s.Pb.learned));
  check_int "three solves recorded" 3 (Pb.Session.solves sess)

(* ------------------------------------------------------------------ *)
(* Var_heap warm restore                                               *)

let test_var_heap_of_activities () =
  let acts = [| 3.; 1.; 4.; 1.5; 5.; 0.; 2.5 |] in
  let h = Var_heap.of_activities acts in
  Array.iteri
    (fun x a -> checkf 0. (Printf.sprintf "activity %d preserved" x) a
                  (Var_heap.activity h x))
    acts;
  (* drain: activities must come out non-increasing and cover everyone *)
  let popped = ref [] in
  let rec drain () =
    match Var_heap.pop_max h with
    | Some x ->
        popped := x :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  let order = List.rev !popped in
  check_int "all variables popped" (Array.length acts) (List.length order);
  let rec non_increasing = function
    | a :: (b :: _ as rest) ->
        acts.(a) >= acts.(b) && non_increasing rest
    | _ -> true
  in
  checkb "popped in activity order" true (non_increasing order);
  checkb "first pop is the max" true (List.hd order = 4);
  (* the mem filter: only selected variables are queued, but every
     activity is retained (unqueued ones can be pushed later) *)
  let h2 = Var_heap.of_activities ~mem:(fun x -> x mod 2 = 0) acts in
  let queued = ref 0 in
  let rec drain2 () =
    match Var_heap.pop_max h2 with
    | Some x ->
        checkb "only even queued" true (x mod 2 = 0);
        incr queued;
        drain2 ()
    | None -> ()
  in
  drain2 ();
  check_int "four even variables" 4 !queued;
  checkf 0. "unqueued activity retained" 1.5 (Var_heap.activity h2 3);
  Var_heap.push h2 3;
  checkb "push after restore" true (Var_heap.pop_max h2 = Some 3)

let test_var_heap_rebuild () =
  let h = Var_heap.create 6 in
  List.iter (fun (x, a) -> Var_heap.bump h x a)
    [ (0, 2.); (1, 9.); (2, 4.); (3, 1.); (4, 7.); (5, 3.) ];
  checkb "max before rebuild" true (Var_heap.mem h 1);
  Var_heap.rescale h 0.5;
  Var_heap.rebuild h;
  checkf 0. "rescaled activity" 4.5 (Var_heap.activity h 1);
  let rec drain acc =
    match Var_heap.pop_max h with
    | Some x -> drain (x :: acc)
    | None -> List.rev acc
  in
  checkb "order survives rescale+rebuild" true
    (drain [] = [ 1; 4; 2; 5; 0; 3 ])

(* ------------------------------------------------------------------ *)
(* presolve x session: typed rejection                                 *)

let test_presolve_with_session_rejected () =
  let m, _ = session_model_base () in
  let sess = Solver.make_session m in
  (match Solver.solve ~presolve:true ~session:sess m with
  | exception Error.E (Error.Invalid_input msgs) ->
      checkb "message names presolve" true
        (List.exists
           (fun s ->
             let has needle =
               let n = String.length needle and l = String.length s in
               let rec go i =
                 i + n <= l && (String.sub s i n = needle || go (i + 1))
               in
               go 0
             in
             has "presolve")
           msgs)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "presolve + session accepted");
  (* defaulted presolve is silently disabled: the same call without the
     explicit flag must succeed *)
  match Solver.solve ~session:sess m with
  | Solver.Optimal { objective; _ }, _ -> checkf 1e-9 "optimum" 6. objective
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Core-guided backend                                                 *)

let test_core_guided_matches_brute () =
  let m, _ = session_model_base () in
  let reference =
    match Solver.solve ~backend:Solver.Brute_force ~presolve:false m with
    | Solver.Optimal { objective; _ }, _ -> objective
    | _ -> Alcotest.fail "brute force failed"
  in
  match Solver.solve ~backend:Solver.Core_guided m with
  | Solver.Optimal { objective; solution }, _ ->
      checkf 1e-9 "core-guided optimum" reference objective;
      checkb "solution feasible" true
        (Model.is_feasible m (fun x -> solution.(x)))
  | _ -> Alcotest.fail "expected core-guided optimum"

let test_core_guided_infeasible () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Ge 3.;
  match Solver.solve ~backend:Solver.Core_guided m with
  | Solver.Infeasible, _ -> ()
  | _ -> Alcotest.fail "expected infeasible"

(* ------------------------------------------------------------------ *)

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "incremental"
    [ ( "differential",
        [ quick "incremental matches scratch" test_incremental_matches_scratch;
          quick "unfeasible parity" test_incremental_unfeasible_parity;
          quick "reduce_db guard at r* = 2e-10"
            test_incremental_reduce_db_guard;
          quick "certificate chain with session stamps"
            test_incremental_cert_chain;
          quick "portfolio parity g=1,2,3" test_portfolio_parity_incremental;
          quick "checkpoint/resume incremental"
            test_checkpoint_resume_incremental ] );
      ( "session",
        [ quick "delta stats sum to totals" test_session_delta_stats_sum;
          quick "presolve with session rejected"
            test_presolve_with_session_rejected ] );
      ( "var_heap",
        [ quick "of_activities warm restore" test_var_heap_of_activities;
          quick "rebuild after rescale" test_var_heap_rebuild ] );
      ( "core_guided",
        [ quick "matches brute force" test_core_guided_matches_brute;
          quick "proves infeasibility" test_core_guided_infeasible ] ) ]
