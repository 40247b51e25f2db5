(* Cross-cutting integration tests: the two synthesis algorithms against
   each other and against the reliability engines, on the EPS case study
   (moderate requirements so the whole suite stays fast). *)

module Digraph = Netgraph.Digraph
module Template = Archlib.Template

let checkb = Alcotest.(check bool)

(* A relaxed-probability EPS: same structure, failing components at 0.05,
   so interesting redundancy appears at cheap requirements. *)
let run_mr template ~r_star =
  match Archex.Ilp_mr.run template ~r_star with
  | Archex.Synthesis.Synthesized (arch, trace, _) -> Some (arch, trace)
  | Archex.Synthesis.Unfeasible _ -> None

let test_eps_mr_meets_requirement () =
  let inst = Eps.Eps_template.base () in
  let template = inst.Eps.Eps_template.template in
  let r_star = 1e-6 in
  match run_mr template ~r_star with
  | None -> Alcotest.fail "EPS can reach 1e-6"
  | Some (arch, trace) ->
      checkb "meets r*" true (arch.Archex.Synthesis.reliability <= r_star);
      checkb "several iterations" true (List.length trace >= 2);
      (* verify the reported reliability against an independent engine *)
      let report =
        Archex.Rel_analysis.analyze ~engine:Reliability.Exact.Factoring
          template arch.Archex.Synthesis.config
      in
      checkb "factoring engine agrees" true
        (Float.abs
           (report.Archex.Rel_analysis.worst
           -. arch.Archex.Synthesis.reliability)
         < 1e-12)

let test_eps_mr_iterations_monotone_cost () =
  let inst = Eps.Eps_template.base () in
  let template = inst.Eps.Eps_template.template in
  match run_mr template ~r_star:1e-6 with
  | None -> Alcotest.fail "feasible"
  | Some (_, trace) ->
      let costs = List.map (fun it -> it.Archex.Ilp_mr.cost) trace in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | [ _ ] | [] -> true
      in
      checkb "cost never decreases over iterations" true (monotone costs)

let test_eps_ar_estimate_conservative_for_requirement () =
  let inst = Eps.Eps_template.base () in
  let template = inst.Eps.Eps_template.template in
  let r_star = 1e-6 in
  match Archex.Ilp_ar.run template ~r_star with
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "AR can reach 1e-6"
  | Archex.Synthesis.Synthesized (arch, info, _) ->
      checkb "estimate meets requirement" true
        (info.Archex.Ilp_ar.approx_estimate <= r_star +. 1e-15);
      (* Theorem 2: r~ / r ≥ bound *)
      checkb "estimate within Theorem 2 bound of exact" true
        (info.Archex.Ilp_ar.approx_estimate
         /. arch.Archex.Synthesis.reliability
         >= info.Archex.Ilp_ar.theorem2_bound -. 1e-9);
      (* the synthesized architecture satisfies the structural rules *)
      Array.iter
        (fun l ->
          checkb "load powered" true
            (Digraph.in_degree arch.Archex.Synthesis.config l >= 1))
        inst.Eps.Eps_template.loads

let test_mr_cost_not_above_ar_cost_plus_slack () =
  (* ILP-MR iterates against the exact oracle, ILP-AR against the estimate:
     both must land in the same cost region for the same requirement. *)
  let r_star = 1e-6 in
  let mr =
    let inst = Eps.Eps_template.base () in
    run_mr inst.Eps.Eps_template.template ~r_star
  in
  let ar =
    let inst = Eps.Eps_template.base () in
    match Archex.Ilp_ar.run inst.Eps.Eps_template.template ~r_star with
    | Archex.Synthesis.Synthesized (arch, _, _) -> Some arch
    | Archex.Synthesis.Unfeasible _ -> None
  in
  match (mr, ar) with
  | Some (mr_arch, _), Some ar_arch ->
      let a = mr_arch.Archex.Synthesis.cost
      and b = ar_arch.Archex.Synthesis.cost in
      checkb
        (Printf.sprintf "costs within 2x (mr=%g ar=%g)" a b)
        true
        (a <= (2. *. b) +. 1e-9 && b <= (2. *. a) +. 1e-9)
  | _ -> Alcotest.fail "both algorithms must synthesize"

let test_lp_format_roundtrip_on_eps_model () =
  (* the compiled ILP-AR model serializes to LP format without error and
     mentions every variable kind *)
  let inst = Eps.Eps_template.base () in
  let enc, info =
    Archex.Ilp_ar.compile inst.Eps.Eps_template.template ~r_star:1e-6
  in
  let text = Milp.Lp_format.to_string (Archex.Gen_ilp.model enc) in
  checkb "has content" true (String.length text > 1000);
  checkb "constraint count positive" true
    (info.Archex.Ilp_ar.constraint_count > 0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "integration"
    [ ( "eps_mr",
        [ slow "meets requirement, engines agree"
            test_eps_mr_meets_requirement;
          slow "iteration costs monotone" test_eps_mr_iterations_monotone_cost
        ] );
      ( "eps_ar",
        [ slow "estimate conservative and within Theorem 2"
            test_eps_ar_estimate_conservative_for_requirement ] );
      ( "cross",
        [ slow "MR and AR land in the same cost region"
            test_mr_cost_not_above_ar_cost_plus_slack;
          quick "LP-format export of the AR model"
            test_lp_format_roundtrip_on_eps_model ] ) ]
