(* Tests for the search-effectiveness layer: Archex_inspect report
   building/rendering on hand-crafted insight records, and the ILP-MR
   [?inspect] mode end to end (row activity with stable ids and birth
   iterations, row counts that carry over between iterations). *)

module J = Archex_obs.Json
module Component = Archlib.Component
module Library = Archlib.Library
module Requirement = Archlib.Requirement
module Template = Archlib.Template
module Inspect = Archex_inspect

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf eps = Alcotest.(check (float eps))

(* Same 3-layer template as test_core: 2 sources, 3 middles, 1 sink. *)
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

(* ------------------------------------------------------------------ *)
(* Report building from hand-crafted insight records                   *)

let act ~row ~name ~kind ~born ~props ~conflicts ~binding =
  { Inspect.id = row; name; kind; born; props; conflicts; binding }

let insight_1 =
  { Inspect.iteration = 1;
    rows_total = 3;
    activity =
      [ act ~row:0 ~name:"req0" ~kind:"requirement" ~born:0 ~props:5
          ~conflicts:1 ~binding:1;
        act ~row:2 ~name:"row2" ~kind:"template" ~born:0 ~props:2
          ~conflicts:1 ~binding:0 ];
    (* learned rows 3 and 4 appear after this solve *)
    learned_names = [ "cut_a"; "cut_b" ] }

let insight_2 =
  { Inspect.iteration = 2;
    rows_total = 5;
    activity =
      [ act ~row:0 ~name:"req0" ~kind:"requirement" ~born:0 ~props:1
          ~conflicts:0 ~binding:1;
        (* learned row 3 fires; learned row 4 stays dead *)
        act ~row:3 ~name:"cut_a" ~kind:"learned" ~born:1 ~props:7
          ~conflicts:2 ~binding:0 ];
    learned_names = [] }

let test_build_aggregates () =
  let rep = Inspect.build ~insights:[ insight_1; insight_2 ] in
  check_int "two iterations" 2 (List.length rep.Inspect.iterations);
  (* row 0 counters sum across both iterations *)
  let r0 = List.find (fun r -> r.Inspect.id = 0) rep.Inspect.rows in
  check_int "row0 props summed" 6 r0.Inspect.props;
  check_int "row0 binding summed" 2 r0.Inspect.binding;
  checkb "row0 kind" true (String.equal r0.Inspect.kind "requirement");
  (* learned row 3 is active, learned row 4 (never in any activity
     table) is reported dead under its registered name *)
  (match rep.Inspect.dead_learned with
  | [ d ] ->
      check_int "dead learned id" 4 d.Inspect.id;
      checkb "dead learned name" true (String.equal d.Inspect.name "cut_b");
      check_int "dead learned born" 1 d.Inspect.born
  | l -> Alcotest.failf "expected 1 dead learned row, got %d"
           (List.length l));
  (* per-iteration row counts and learned-activity split *)
  let it1 = List.hd rep.Inspect.iterations in
  check_int "it1 rows learned" 2 it1.Inspect.rows_learned;
  let it2 = List.nth rep.Inspect.iterations 1 in
  check_int "it2 rows total" 5 it2.Inspect.rows_total;
  check_int "it2 learned activity" 9 it2.Inspect.learned_activity;
  check_int "it2 total activity" 11 it2.Inspect.total_activity

let test_top_pruners_ranking () =
  let rep = Inspect.build ~insights:[ insight_1; insight_2 ] in
  (* rows 0 and 2 tie on conflicts (1 each): propagations break it *)
  (match Inspect.top_pruners ~k:3 rep with
  | [ first; second; third ] ->
      check_int "most conflicts first" 3 first.Inspect.id;
      check_int "conflict tie broken by props" 0 second.Inspect.id;
      check_int "then row 2" 2 third.Inspect.id
  | l -> Alcotest.failf "expected 3 rows, got %d" (List.length l));
  check_int "k caps the list" 1
    (List.length (Inspect.top_pruners ~k:1 rep))

let test_report_rendering () =
  let rep = Inspect.build ~insights:[ insight_1; insight_2 ] in
  (* JSON round-trips through the parser *)
  (match J.of_string (J.to_string (Inspect.to_json rep)) with
  | Ok j ->
      (match J.mem "iterations" j with
      | Some (J.Arr its) -> check_int "iterations in JSON" 2 (List.length its)
      | _ -> Alcotest.fail "iterations missing");
      (match J.mem "rows" j with
      | Some (J.Arr rows) -> checkb "rows nonempty" true (rows <> [])
      | _ -> Alcotest.fail "rows missing")
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let md = Inspect.to_markdown ~top_k:5 rep in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "markdown mentions %S" needle) true
        (contains md needle))
    [ "Model growth"; "Top pruning rows"; "Dead learned rows";
      "cut_b"; "cut_a" ]

let test_empty_report () =
  let rep = Inspect.build ~insights:[] in
  check_int "no iterations" 0 (List.length rep.Inspect.iterations);
  checkb "no rows" true (rep.Inspect.rows = [] && rep.Inspect.dead_learned = []);
  (* both renderers stay total on the empty report *)
  (match J.of_string (J.to_string (Inspect.to_json rep)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "empty report JSON invalid: %s" e);
  checkb "empty markdown renders" true
    (String.length (Inspect.to_markdown rep) > 0)

(* ------------------------------------------------------------------ *)
(* ILP-MR ?inspect end to end                                          *)

let test_mr_inspect_end_to_end () =
  let t = small_template () in
  match Archex.Ilp_mr.run ~inspect:true t ~r_star:0.08 with
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "0.08 is reachable"
  | Archex.Synthesis.Synthesized (_, trace, _) ->
      checkb "needed learning" true (List.length trace >= 2);
      let insights =
        List.map
          (fun it ->
            match it.Archex.Ilp_mr.insight with
            | Some ins -> ins
            | None ->
                Alcotest.failf "iteration %d has no insight"
                  it.Archex.Ilp_mr.index)
          trace
      in
      List.iter
        (fun (ins : Inspect.insight) ->
          checkb "some row was active" true (ins.activity <> []);
          List.iter
            (fun (r : Inspect.row) ->
              checkb "stable id in range" true
                (0 <= r.id && r.id < ins.rows_total);
              checkb "known kind" true
                (List.mem r.kind [ "template"; "requirement"; "learned" ]))
            ins.activity)
        insights;
      (* later iterations attribute activity to learned rows *)
      checkb "a learned row shows solver activity" true
        (List.exists
           (fun (ins : Inspect.insight) ->
             List.exists
               (fun (r : Inspect.row) -> r.kind = "learned")
               ins.activity)
           insights);
      (* the whole trace's insights feed the report builder *)
      let rep = Inspect.build ~insights in
      check_int "report covers every iteration" (List.length trace)
        (List.length rep.Inspect.iterations);
      checkb "report has active rows" true (rep.Inspect.rows <> [])

(* Learn_cons only appends, so every iteration solves the previous
   iteration's rows plus the rows that iteration learned, and its
   activity ids stay below its own row count. *)
let test_mr_inspect_rows_carry_over () =
  let t = (Eps.Eps_template.make ~generators:2).Eps.Eps_template.template in
  match Archex.Ilp_mr.run ~inspect:true t ~r_star:2e-6 with
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "g = 2 meets 2e-6"
  | Archex.Synthesis.Synthesized (_, trace, _) ->
      checkb "several iterations" true (List.length trace >= 2);
      let insights =
        List.filter_map (fun it -> it.Archex.Ilp_mr.insight) trace
      in
      check_int "every iteration inspected" (List.length trace)
        (List.length insights);
      List.iter2
        (fun it (ins : Inspect.insight) ->
          check_int "rows_total is the solved model's row count"
            (Milp.Model.constraint_count it.Archex.Ilp_mr.model)
            ins.rows_total;
          List.iter
            (fun (r : Inspect.row) ->
              checkb "activity id below rows_total" true
                (r.id < ins.rows_total))
            ins.activity)
        trace insights;
      let rec carry = function
        | (prev : Inspect.iteration_summary) :: (next :: _ as rest) ->
            check_int
              (Printf.sprintf "iteration %d rows" next.index)
              (prev.rows_total + prev.rows_learned)
              next.rows_total;
            carry rest
        | [ _ ] | [] -> ()
      in
      carry (Inspect.build ~insights).Inspect.iterations

let test_mr_inspect_off_by_default () =
  let t = small_template () in
  match Archex.Ilp_mr.run t ~r_star:0.08 with
  | Archex.Synthesis.Synthesized (_, trace, _) ->
      checkb "no insight without ?inspect" true
        (List.for_all (fun it -> it.Archex.Ilp_mr.insight = None) trace)
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "0.08 is reachable"

(* Inspection must not change what is synthesized (it only counts):
   same architecture, same cost. *)
let test_mr_inspect_preserves_result () =
  let run inspect =
    match
      Archex.Ilp_mr.run ~inspect (small_template ()) ~r_star:0.08
    with
    | Archex.Synthesis.Synthesized (arch, _, _) ->
        (arch.Archex.Synthesis.cost, arch.Archex.Synthesis.reliability)
    | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "0.08 is reachable"
  in
  let cost_off, rel_off = run false in
  let cost_on, rel_on = run true in
  checkf 1e-9 "same cost" cost_off cost_on;
  checkf 1e-12 "same reliability" rel_off rel_on

(* Inspection reports the search that an uninspected run performs: every
   iteration takes as many decisions and conflicts with [~inspect] as
   without it, so nothing in the solve may depend on row tracking. *)
let test_mr_inspect_sees_the_search () =
  let t = (Eps.Eps_template.make ~generators:2).Eps.Eps_template.template in
  let effort inspect =
    match Archex.Ilp_mr.run ~inspect t ~r_star:1e-4 with
    | Archex.Synthesis.Synthesized (_, trace, _) ->
        List.map
          (fun it ->
            let s = it.Archex.Ilp_mr.stats in
            (s.Milp.Solver.nodes, s.Milp.Solver.conflicts))
          trace
    | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "g = 2 meets 1e-4"
  in
  let plain = effort false and inspected = effort true in
  checkb "several iterations" true (List.length plain >= 2);
  checkb "per-iteration decisions and conflicts equal" true
    (plain = inspected)

let () =
  Alcotest.run "inspect"
    [
      ( "report",
        [
          Alcotest.test_case "aggregates across iterations" `Quick
            test_build_aggregates;
          Alcotest.test_case "top pruners ranking" `Quick
            test_top_pruners_ranking;
          Alcotest.test_case "renders markdown and JSON" `Quick
            test_report_rendering;
          Alcotest.test_case "empty report is total" `Quick
            test_empty_report;
        ] );
      ( "ilp-mr",
        [
          Alcotest.test_case "inspect end to end" `Quick
            test_mr_inspect_end_to_end;
          Alcotest.test_case "rows carry over between iterations" `Quick
            test_mr_inspect_rows_carry_over;
          Alcotest.test_case "off by default" `Quick
            test_mr_inspect_off_by_default;
          Alcotest.test_case "does not change the result" `Quick
            test_mr_inspect_preserves_result;
          Alcotest.test_case "inspect sees the search it reports" `Quick
            test_mr_inspect_sees_the_search;
        ] );
    ]
