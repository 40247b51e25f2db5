(* Tests for the ARCHEX core: GENILP encoding, RELANALYSIS, LEARNCONS
   (ESTPATH / walk indicators / ADDPATH), ILP-MR and ILP-AR on small
   templates where the optimum is known or checkable. *)

module Digraph = Netgraph.Digraph
module Component = Archlib.Component
module Library = Archlib.Library
module Requirement = Archlib.Requirement
module Template = Archlib.Template
module Model = Milp.Model
module Solver = Milp.Solver

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)

(* A small 3-layer template: 2 sources (p=0.1, cost 5), 3 middles (p=0.1,
   cost 20), 1 sink (perfect, cost 0); full bipartite candidates with
   switch cost 2. *)
let small_lib =
  Library.make ~switch_cost:2.
    [ { Library.type_name = "SRC"; cost = 5.; fail_prob = 0.1 };
      { type_name = "MID"; cost = 20.; fail_prob = 0.1 };
      { type_name = "SNK"; cost = 0.; fail_prob = 0. } ]

let small_template ?(with_requirements = true) () =
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
  if with_requirements then begin
    Template.add_requirement t (Requirement.require_powered 5);
    Template.add_requirement t
      (Requirement.at_least_incoming ~to_:5 ~from_:[ 2; 3; 4 ] 1);
    (* middles feeding the sink must be fed by a source *)
    List.iter
      (fun m ->
        Template.add_requirement t
          (Requirement.Conditional_connect
             ([ (m, 5) ], [ (0, m); (1, m) ])))
      [ 2; 3; 4 ]
  end;
  t

(* ------------------------------------------------------------------ *)
(* Gen_ilp                                                             *)

let test_encoding_size () =
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  (* 9 edge vars + 6 deltas + … *)
  checkb "has edge vars" true
    (Archex.Gen_ilp.edge_var_opt enc 0 2 <> None);
  checkb "non-candidate has none" true
    (Archex.Gen_ilp.edge_var_opt enc 2 0 = None);
  checkb "delta for connected node" true
    (Archex.Gen_ilp.delta_var enc 0 <> None);
  checkb "model has rows" true
    (Model.constraint_count (Archex.Gen_ilp.model enc) > 0)

let test_minimal_solve_matches_eq1 () =
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  match Archex.Gen_ilp.solve enc with
  | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
      Alcotest.fail "feasible template reported infeasible"
  | Archex.Gen_ilp.Solved { config; objective = cost; _ } ->
      (* minimal: one source (5) + one middle (20) + sink + 2 switches (4) *)
      checkf 1e-9 "objective = 29" 29. cost;
      checkf 1e-9 "objective equals Eq. 1 on the configuration" cost
        (Template.configuration_cost t config);
      check_int "two edges" 2 (Digraph.edge_count config)

let test_objective_matches_config_cost_always () =
  (* For any solver outcome the model objective must equal Eq. 1. *)
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  let model = Archex.Gen_ilp.model enc in
  (* force a bigger architecture: both sources, two middles *)
  Model.fix model (Archex.Gen_ilp.edge_var enc 0 2) 1.;
  Model.fix model (Archex.Gen_ilp.edge_var enc 1 3) 1.;
  Model.fix model (Archex.Gen_ilp.edge_var enc 3 5) 1.;
  match Archex.Gen_ilp.solve enc with
  | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
      Alcotest.fail "infeasible"
  | Archex.Gen_ilp.Solved { config; objective = cost; _ } ->
      checkf 1e-9 "Eq. 1 consistency" cost
        (Template.configuration_cost t config)

let test_isolated_node_requirement_rejected () =
  let comp ty name = Library.instantiate small_lib ~type_id:ty ~name in
  let t = Template.create [| comp 0 "S"; comp 2 "T"; comp 1 "M" |] in
  Template.add_candidate_edge t 0 1;
  Template.set_sources t [ 0 ];
  Template.set_sinks t [ 1 ];
  (* node 2 has no candidate edges: requiring it powered must be rejected *)
  Template.add_requirement t (Requirement.require_powered 2);
  match Archex.Gen_ilp.encode t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Rel_analysis                                                        *)

let test_rel_analysis_single_chain () =
  let t = small_template () in
  let config = Template.config_of_edges t [ (0, 2); (2, 5) ] in
  let report = Archex.Rel_analysis.analyze t config in
  (* source and middle fail at 0.1 each: r = 1 - 0.9² = 0.19 *)
  checkf 1e-12 "chain failure" 0.19 report.Archex.Rel_analysis.worst;
  checkb "meets loose" true (Archex.Rel_analysis.meets report ~r_star:0.2);
  checkb "misses tight" false
    (Archex.Rel_analysis.meets report ~r_star:0.1)

let test_rel_analysis_unused_sink () =
  let t = small_template () in
  let config = Template.config_of_edges t [ (0, 2) ] in
  let report = Archex.Rel_analysis.analyze t config in
  checkf 1e-12 "unpowered sink fails surely" 1.
    report.Archex.Rel_analysis.worst

(* ------------------------------------------------------------------ *)
(* Learn_cons                                                          *)

let test_est_path_formula () =
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  let st = Archex.Learn_cons.init enc in
  let config = Template.config_of_edges t [ (0, 2); (2, 5) ] in
  (* ρ = 0.19 (best path failure); r = 0.19.
     r* slightly above 0.19·0.19² → k = ⌊2.006⌋ = 2 *)
  let r = 0.19 in
  let k =
    Archex.Learn_cons.est_path st ~config ~reliability:r
      ~r_star:(r *. 0.19 *. 0.19 *. 0.99)
  in
  check_int "k = 2" 2 k;
  check_int "k = 0 when met" 0
    (Archex.Learn_cons.est_path st ~config ~reliability:r ~r_star:0.5)

let test_reach_var_semantics () =
  (* reach vars must equal walk existence in any solved configuration *)
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  let st = Archex.Learn_cons.init enc in
  let model = Archex.Gen_ilp.model enc in
  let reach_s1 =
    match Archex.Learn_cons.reach_var st ~sink:5 ~depth:2 0 with
    | Some v -> v
    | None -> Alcotest.fail "S1 can reach T in the candidate graph"
  in
  (* force a config: S1→M1→T and nothing else from S1 side *)
  Model.fix model (Archex.Gen_ilp.edge_var enc 0 2) 1.;
  Model.fix model (Archex.Gen_ilp.edge_var enc 2 5) 1.;
  (match Archex.Gen_ilp.solve enc with
  | Archex.Gen_ilp.Solved { config; _ } ->
      checkb "config has the walk" true (Digraph.exists_path config 0 5)
  | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
      Alcotest.fail "infeasible");
  (* now require reach_s1 = 0 while the edges force it = 1: infeasible *)
  Model.fix model reach_s1 0.;
  match Archex.Gen_ilp.solve enc with
  | Archex.Gen_ilp.No_solution _ -> ()
  | Archex.Gen_ilp.Solved _ | Archex.Gen_ilp.Exhausted _ ->
      Alcotest.fail "reach indicator failed to track the walk"

let test_source_connection_var_semantics () =
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  let st = Archex.Learn_cons.init enc in
  (* a source is trivially connected: the indicator is fixed to 1 *)
  (match Archex.Learn_cons.source_connection_var st ~depth:1 0 with
  | Some v ->
      Alcotest.(check (float 1e-9)) "source fixed true" 1.
        (Milp.Model.lower_bound (Archex.Gen_ilp.model enc) v)
  | None -> Alcotest.fail "sources are always connected");
  (* a middle node at depth 0 has no indicator *)
  checkb "depth 0 non-source" true
    (Archex.Learn_cons.source_connection_var st ~depth:0 2 = None);
  (* at depth 1 a middle can be fed directly by a source *)
  match Archex.Learn_cons.source_connection_var st ~depth:1 2 with
  | Some v ->
      (* forcing the indicator true while cutting both feeds is infeasible *)
      let model = Archex.Gen_ilp.model enc in
      Milp.Model.fix model v 1.;
      Milp.Model.fix model (Archex.Gen_ilp.edge_var enc 0 2) 0.;
      Milp.Model.fix model (Archex.Gen_ilp.edge_var enc 1 2) 0.;
      (match Archex.Gen_ilp.solve enc with
      | Archex.Gen_ilp.No_solution _ -> ()
      | Archex.Gen_ilp.Solved _ | Archex.Gen_ilp.Exhausted _ ->
          Alcotest.fail "src indicator must track feeds")
  | None -> Alcotest.fail "middle node reachable at depth 1"

let test_learn_adds_constraints_and_saturates () =
  let t = small_template () in
  let enc = Archex.Gen_ilp.encode t in
  let st = Archex.Learn_cons.init enc in
  let config = Template.config_of_edges t [ (0, 2); (2, 5) ] in
  let before = Model.constraint_count (Archex.Gen_ilp.model enc) in
  (match
     Archex.Learn_cons.learn st ~config ~reliability:0.19 ~r_star:1e-6
   with
  | Archex.Learn_cons.Learned { k; new_constraints } ->
      checkb "k >= 1" true (k >= 1);
      checkb "constraints added" true (new_constraints > 0);
      checkb "model grew" true
        (Model.constraint_count (Archex.Gen_ilp.model enc) > before)
  | Archex.Learn_cons.Saturated -> Alcotest.fail "should learn first");
  (* learning repeatedly with an impossible target must eventually
     saturate rather than loop *)
  let rec drive n =
    if n > 20 then Alcotest.fail "did not saturate"
    else
      match
        Archex.Learn_cons.learn st ~config ~reliability:0.19 ~r_star:1e-30
      with
      | Archex.Learn_cons.Learned _ -> drive (n + 1)
      | Archex.Learn_cons.Saturated -> ()
  in
  drive 0

(* ------------------------------------------------------------------ *)
(* ILP-MR end to end                                                   *)

let test_ilp_mr_improves_to_requirement () =
  let t = small_template () in
  (* single chain r = 0.19; two disjoint chains r ≈ 0.0361 + …;
     ask for 0.08: one extra path needed *)
  match Archex.Ilp_mr.run t ~r_star:0.08 with
  | Archex.Synthesis.Synthesized (arch, trace, _) ->
      checkb "meets requirement" true
        (arch.Archex.Synthesis.reliability <= 0.08);
      checkb "took more than one iteration" true (List.length trace >= 2);
      checkb "cost grew along iterations" true
        (match trace with
        | first :: _ ->
            arch.Archex.Synthesis.cost >= first.Archex.Ilp_mr.cost
        | [] -> false)
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "requirement is reachable"

let test_ilp_mr_first_iteration_is_minimal () =
  let t = small_template () in
  match Archex.Ilp_mr.run t ~r_star:1.0 with
  | Archex.Synthesis.Synthesized (arch, trace, _) ->
      check_int "single iteration" 1 (List.length trace);
      checkf 1e-9 "minimal cost" 29. arch.Archex.Synthesis.cost
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "trivially feasible"

(* No hidden search: the [pb.*] metrics count every PB search a run
   makes, and each iteration's [stats] count the search whose optimum it
   used.  They must agree, so no solve may run a second search and
   discard it. *)
let test_ilp_mr_no_hidden_search () =
  let t = (Eps.Eps_template.base ()).Eps.Eps_template.template in
  let metrics = Archex_obs.Metrics.create () in
  let metric name =
    int_of_float
      (Option.value (Archex_obs.Metrics.value metrics name) ~default:0.)
  in
  match
    Archex.Ilp_mr.run ~obs:(Archex_obs.Ctx.make ~metrics ()) t ~r_star:2e-6
  with
  | Archex.Synthesis.Synthesized (_, trace, _) ->
      let sum f =
        List.fold_left (fun acc it -> acc + f it.Archex.Ilp_mr.stats) 0 trace
      in
      let conflicts = sum (fun s -> s.Solver.conflicts) in
      checkb "searched" true (conflicts > 0);
      check_int "pb.conflicts = summed iteration conflicts" conflicts
        (metric "pb.conflicts");
      check_int "pb.decisions = summed iteration nodes"
        (sum (fun s -> s.Solver.nodes))
        (metric "pb.decisions")
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "base EPS meets 2e-6"

(* Regression (reduce_db reason pinning, DESIGN.md §14): clause-database
   reduction must keep every learned clause that is the recorded reason of
   a trail literal.  The observable symptom of the old bug was conflict
   blowup and, in the worst case, unsound backjumps.  Fig. 2 (base EPS,
   r* = 2e-10) is the run whose solves learn far past the 2,000-clause
   reduction threshold: its per-iteration optima must hold, and its
   conflicts must not exceed 45,330, their deterministic count when the
   guard was set. *)
let test_ilp_mr_reduce_db_guard () =
  let t = (Eps.Eps_template.base ()).Eps.Eps_template.template in
  let metrics = Archex_obs.Metrics.create () in
  match
    Archex.Ilp_mr.run ~obs:(Archex_obs.Ctx.make ~metrics ()) t
      ~r_star:2e-10
  with
  | Archex.Synthesis.Synthesized (_, trace, _) ->
      checkb "Fig. 2 per-iteration costs" true
        (List.map (fun it -> it.Archex.Ilp_mr.cost) trace
        = [ 13007.; 27015.; 31015. ]);
      let conflicts =
        int_of_float
          (Option.value
             (Archex_obs.Metrics.value metrics "pb.conflicts")
             ~default:0.)
      in
      checkb
        (Printf.sprintf "Fig. 2 conflicts bounded (%d <= 45330)" conflicts)
        true (conflicts <= 45_330)
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "base EPS meets 2e-10"

let test_ilp_mr_unfeasible_when_template_too_small () =
  let t = small_template () in
  (* even the best architecture (2 sources × 3 middles fully wired) has
     r ≈ p_T + … ≥ ~1e-3: a 1e-12 requirement must be UNFEASIBLE *)
  match Archex.Ilp_mr.run t ~r_star:1e-12 with
  | Archex.Synthesis.Unfeasible (_, trace, _) ->
      checkb "tried something" true (trace <> [])
  | Archex.Synthesis.Synthesized (arch, _, _) ->
      Alcotest.failf "impossible requirement satisfied?! r=%g"
        arch.Archex.Synthesis.reliability

let test_ilp_mr_lazy_strategy_more_iterations () =
  let t = small_template () in
  let t' = small_template () in
  let run strategy template =
    match Archex.Ilp_mr.run ~strategy template ~r_star:0.01 with
    | Archex.Synthesis.Synthesized (_, trace, _) -> List.length trace
    | Archex.Synthesis.Unfeasible (_, trace, _) -> List.length trace
  in
  let estimated = run Archex.Learn_cons.Estimated t in
  let lazy_ = run Archex.Learn_cons.Lazy_one_path t' in
  checkb "lazy needs at least as many iterations" true (lazy_ >= estimated)

(* ------------------------------------------------------------------ *)
(* ILP-AR end to end                                                   *)

let test_ilp_ar_minimal_when_loose () =
  let t = small_template () in
  match Archex.Ilp_ar.run t ~r_star:0.5 with
  | Archex.Synthesis.Synthesized (arch, info, _) ->
      checkf 1e-9 "loose requirement keeps minimal cost" 29.
        arch.Archex.Synthesis.cost;
      checkb "estimate below requirement" true
        (info.Archex.Ilp_ar.approx_estimate <= 0.5)
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "loose must be feasible"

let test_ilp_ar_adds_redundancy_when_tight () =
  let t = small_template () in
  (* p = 0.1; single path estimate = 2·0.1 = 0.2; with h=2 per type:
     2·2·0.01 = 0.04.  Requirement 0.05 forces h=2. *)
  match Archex.Ilp_ar.run t ~r_star:0.05 with
  | Archex.Synthesis.Synthesized (arch, info, _) ->
      checkb "estimate meets requirement" true
        (info.Archex.Ilp_ar.approx_estimate <= 0.05 +. 1e-12);
      checkb "costlier than minimal" true
        (arch.Archex.Synthesis.cost > 29.);
      checkb "estimate within Theorem 2 of exact" true
        (info.Archex.Ilp_ar.approx_estimate
         /. arch.Archex.Synthesis.reliability
         >= info.Archex.Ilp_ar.theorem2_bound -. 1e-9)
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "0.05 is reachable"

let test_ilp_ar_unfeasible_when_impossible () =
  let t = small_template () in
  match Archex.Ilp_ar.run t ~r_star:1e-12 with
  | Archex.Synthesis.Unfeasible (_, info, _) ->
      checkb "reports model size" true
        (info.Archex.Ilp_ar.constraint_count > 0)
  | Archex.Synthesis.Synthesized _ ->
      Alcotest.fail "template cannot reach 1e-12"

let test_ilp_ar_requires_chain () =
  let t = small_template () in
  let t_nochain =
    (* rebuild without a chain declaration *)
    let comp ty name = Library.instantiate small_lib ~type_id:ty ~name in
    let u = Template.create [| comp 0 "S"; comp 1 "M"; comp 2 "T" |] in
    Template.add_candidate_edge u 0 1;
    Template.add_candidate_edge u 1 2;
    Template.set_sources u [ 0 ];
    Template.set_sinks u [ 2 ];
    u
  in
  ignore t;
  match Archex.Ilp_ar.compile t_nochain ~r_star:0.1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing chain must be rejected"

let test_mr_and_ar_agree_on_small () =
  (* both algorithms must return architectures meeting the requirement;
     ILP-MR (exact oracle) never costs more than ILP-AR when the
     approximation is conservative here *)
  let r_star = 0.05 in
  let mr = Archex.Ilp_mr.run (small_template ()) ~r_star in
  let ar = Archex.Ilp_ar.run (small_template ()) ~r_star in
  match (mr, ar) with
  | Archex.Synthesis.Synthesized (a_mr, _, _),
    Archex.Synthesis.Synthesized (a_ar, _, _) ->
      checkb "MR meets" true (a_mr.Archex.Synthesis.reliability <= r_star);
      checkb "AR architecture is a valid configuration" true
        (Digraph.edge_count a_ar.Archex.Synthesis.config > 0)
  | _ -> Alcotest.fail "both must synthesize"

(* ------------------------------------------------------------------ *)
(* Symmetry rows                                                       *)

module Json = Archex_obs.Json

let is_symmetry_row row =
  match Json.mem "name" row with
  | Some (Json.Str n) -> String.starts_with ~prefix:"lex_" n
  | _ -> false

(* The model with its symmetry rows (Gen_ilp names them lex_a_b) dropped,
   and how many there were. *)
let without_symmetry_rows m =
  let dropped = ref 0 in
  let keep row =
    if is_symmetry_row row then (incr dropped; false) else true
  in
  let json =
    match Model.to_json m with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "rows", Json.Arr rows -> ("rows", Json.Arr (List.filter keep rows))
               | field -> field)
             fields)
    | j -> j
  in
  match Model.of_json json with
  | Ok m -> (m, !dropped)
  | Error e -> Alcotest.failf "model round trip: %s" e

let optimum m =
  match Solver.solve m with
  | Solver.Optimal { objective; _ }, _ -> Some objective
  | Solver.Infeasible, _ -> None
  | Solver.Limit_reached _, _ -> Alcotest.fail "solve stopped at its limit"

(* Solving with and without the symmetry rows gives the same optimum. *)
let check_rows_keep_optimum ~what ~pairs m =
  let bare, dropped = without_symmetry_rows m in
  check_int (what ^ ": symmetry rows dropped") pairs dropped;
  Alcotest.(check (option (float 1e-6)))
    (what ^ ": same optimum") (optimum bare) (optimum m)

(* Adjacent declared pairs: three interchangeable layers of g slots (4
   on the base template). *)
let eps_pairs g = 3 * (g - 1)

let test_symmetry_rows_keep_mr_optima () =
  let cases =
    List.concat_map
      (fun g ->
        List.map
          (fun r -> (Printf.sprintf "g=%d r*=%g" g r, g, Eps.Eps_template.make ~generators:g, r))
          [ 2e-3; 1e-4; 1e-6 ])
      [ 2; 3 ]
    @ [ ("base r*=2e-6", 4, Eps.Eps_template.base (), 2e-6) ]
  in
  List.iter
    (fun (what, slots, inst, r_star) ->
      match Archex.Ilp_mr.run inst.Eps.Eps_template.template ~r_star with
      | Archex.Synthesis.Unfeasible _ -> Alcotest.failf "%s unfeasible" what
      | Archex.Synthesis.Synthesized (_, trace, _) ->
          List.iter
            (fun it ->
              check_rows_keep_optimum
                ~what:(Printf.sprintf "%s iteration %d" what it.Archex.Ilp_mr.index)
                ~pairs:(eps_pairs slots) it.Archex.Ilp_mr.model)
            trace)
    cases

let test_symmetry_rows_keep_ar_optima () =
  List.iter
    (fun g ->
      List.iter
        (fun r_star ->
          let inst = Eps.Eps_template.make ~generators:g in
          let enc, _ =
            Archex.Ilp_ar.compile inst.Eps.Eps_template.template ~r_star
          in
          check_rows_keep_optimum
            ~what:(Printf.sprintf "ILP-AR g=%d r*=%g" g r_star)
            ~pairs:(eps_pairs g) (Archex.Gen_ilp.model enc))
        [ 2e-3; 1e-4; 1e-6 ])
    [ 2; 3 ]

(* A random template with two layers of interchangeable slots: sources A
   (2 or 3 slots) -> B (2 or 3 slots, 5 in all) -> one sink, full
   bipartite candidates, and only requirements that treat a layer's
   slots alike.  Small enough for Milp.Brute. *)
let gen_slot_template =
  QCheck.Gen.(
    let* m, n = oneofl [ (2, 2); (2, 3); (3, 2) ] in
    let* costs = pair (int_range 1 5) (int_range 1 5) in
    let* sw = pair (int_range 0 3) (int_range 0 3) in
    let* a_out = int_range 1 2 in
    let* b_in = int_range 1 2 in
    let* sink_in = int_range 1 2 in
    let* a_needed = int_range 0 2 in
    return ((m, n), costs, sw, (a_out, b_in, sink_in, a_needed)))

let slot_template ((m, n), (a_cost, b_cost), (sw_ab, sw_bt), caps) =
  let a_out, b_in, sink_in, a_needed = caps in
  let comp ty cost name =
    Component.make ~name ~type_id:ty ~cost:(float_of_int cost)
      ~fail_prob:0.01 ~capacity:1. ()
  in
  let a = List.init m Fun.id in
  let b = List.init n (fun i -> m + i) in
  let sink = m + n in
  let t =
    Template.create
      (Array.of_list
         (List.map (fun _ -> comp 0 a_cost "A") a
         @ List.map (fun _ -> comp 1 b_cost "B") b
         @ [ comp 2 0 "T" ]))
  in
  let connect sw us vs =
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            Template.add_candidate_edge ~switch_cost:(float_of_int sw) t u v)
          vs)
      us
  in
  connect sw_ab a b;
  connect sw_bt b [ sink ];
  Template.set_sources t a;
  Template.set_sinks t [ sink ];
  let add = Template.add_requirement t in
  add (Requirement.require_powered sink);
  add (Requirement.at_least_incoming ~to_:sink ~from_:b sink_in);
  List.iter
    (fun x -> add (Requirement.at_most_connections ~from_:x ~to_:b a_out))
    a;
  List.iter
    (fun x ->
      add (Requirement.at_most_incoming ~to_:x ~from_:a b_in);
      add
        (Requirement.Conditional_connect
           ([ (x, sink) ], List.map (fun y -> (y, x)) a)))
    b;
  add
    (Requirement.supply_covers_demand
       ~providers:(List.map (fun x -> (x, 1.)) a)
       ~consumers:[ (sink, float_of_int a_needed) ]);
  add (Requirement.use_in_order a);
  add (Requirement.use_in_order b);
  t

let brute m =
  match Milp.Brute.solve m with
  | Milp.Brute.Optimal { objective; _ } -> Some objective
  | Milp.Brute.Infeasible -> None

let prop_symmetry_rows_keep_brute_optimum =
  QCheck.Test.make ~name:"symmetry rows keep the brute-force optimum"
    ~count:40
    (QCheck.make gen_slot_template)
    (fun spec ->
      let t = slot_template spec in
      (match Template.validate_all t with
      | Ok () -> ()
      | Error vs ->
          QCheck.Test.fail_reportf "generator made an invalid template: %s"
            (String.concat "; " vs));
      let m = Archex.Gen_ilp.model (Archex.Gen_ilp.encode t) in
      let bare, dropped = without_symmetry_rows m in
      let (m_a, n_b), _, _, _ = spec in
      dropped = m_a - 1 + (n_b - 1)
      && brute m = brute bare
      && optimum m = brute bare)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [ ( "gen_ilp",
        [ quick "encoding shape" test_encoding_size;
          quick "minimal solve matches Eq. 1" test_minimal_solve_matches_eq1;
          quick "objective equals configuration cost"
            test_objective_matches_config_cost_always;
          quick "isolated node in requirement rejected"
            test_isolated_node_requirement_rejected ] );
      ( "rel_analysis",
        [ quick "single chain" test_rel_analysis_single_chain;
          quick "unpowered sink" test_rel_analysis_unused_sink ] );
      ( "learn_cons",
        [ quick "ESTPATH formula" test_est_path_formula;
          quick "walk indicators track configurations"
            test_reach_var_semantics;
          quick "source-connection indicators"
            test_source_connection_var_semantics;
          quick "learning then saturation"
            test_learn_adds_constraints_and_saturates ] );
      ( "ilp_mr",
        [ quick "improves until requirement met"
            test_ilp_mr_improves_to_requirement;
          quick "single iteration when already reliable"
            test_ilp_mr_first_iteration_is_minimal;
          quick "unfeasible requirement detected"
            test_ilp_mr_unfeasible_when_template_too_small;
          quick "lazy strategy needs more iterations"
            test_ilp_mr_lazy_strategy_more_iterations;
          quick "no hidden search" test_ilp_mr_no_hidden_search;
          quick "reduce_db guard at r* = 2e-10" test_ilp_mr_reduce_db_guard
        ] );
      ( "ilp_ar",
        [ quick "loose requirement stays minimal"
            test_ilp_ar_minimal_when_loose;
          quick "tight requirement adds redundancy"
            test_ilp_ar_adds_redundancy_when_tight;
          quick "impossible requirement unfeasible"
            test_ilp_ar_unfeasible_when_impossible;
          quick "missing type chain rejected" test_ilp_ar_requires_chain;
          quick "MR and AR agree on a small template"
            test_mr_and_ar_agree_on_small ] );
      ( "symmetry",
        [ quick "rows keep every ILP-MR iteration's optimum"
            test_symmetry_rows_keep_mr_optima;
          quick "rows keep the ILP-AR optimum"
            test_symmetry_rows_keep_ar_optima;
          QCheck_alcotest.to_alcotest prop_symmetry_rows_keep_brute_optimum
        ] ) ]
