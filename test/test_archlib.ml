(* Tests for components, libraries, requirements and templates. *)

module Digraph = Netgraph.Digraph
module Partition = Netgraph.Partition
module Component = Archlib.Component
module Library = Archlib.Library
module Requirement = Archlib.Requirement
module Template = Archlib.Template

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Component / Library                                                 *)

let test_component_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Component.make ~fail_prob:1.5 ~name:"x" ~type_id:0 ());
  expect_invalid (fun () ->
      Component.make ~cost:(-1.) ~name:"x" ~type_id:0 ());
  expect_invalid (fun () -> Component.make ~name:"x" ~type_id:(-1) ());
  let c = Component.make ~cost:3. ~fail_prob:0.1 ~name:"ok" ~type_id:2 () in
  checkf "cost" 3. c.Component.cost;
  checkf "default capacity" 0. c.Component.capacity

let sample_library () =
  Library.make ~switch_cost:10.
    [ { Library.type_name = "SRC"; cost = 5.; fail_prob = 0.1 };
      { type_name = "MID"; cost = 7.; fail_prob = 0.2 };
      { type_name = "SNK"; cost = 0.; fail_prob = 0. } ]

let test_library_lookup () =
  let lib = sample_library () in
  check_int "types" 3 (Library.type_count lib);
  Alcotest.(check string) "name" "MID" (Library.type_name lib 1);
  check_int "by name" 1 (Library.type_id_of_name lib "MID");
  (match Library.type_id_of_name lib "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  checkf "switch cost" 10. (Library.switch_cost lib)

let test_library_instantiate () =
  let lib = sample_library () in
  let c = Library.instantiate lib ~type_id:0 ~name:"S1" in
  checkf "prototype cost" 5. c.Component.cost;
  checkf "prototype prob" 0.1 c.Component.fail_prob;
  let c' = Library.instantiate ~cost:99. ~capacity:70. lib ~type_id:0
      ~name:"S2" in
  checkf "override cost" 99. c'.Component.cost;
  checkf "capacity" 70. c'.Component.capacity

(* ------------------------------------------------------------------ *)
(* Requirement smart constructors                                      *)

let test_requirement_shapes () =
  (match Requirement.at_least_connections ~from_:1 ~to_:[ 2; 3 ] 1 with
  | Requirement.Edge_card ([ (1, 2); (1, 3) ], Requirement.Ge, 1) -> ()
  | _ -> Alcotest.fail "at_least_connections shape");
  (match Requirement.exactly_incoming ~to_:5 ~from_:[ 1 ] 1 with
  | Requirement.Edge_card ([ (1, 5) ], Requirement.Eq, 1) -> ()
  | _ -> Alcotest.fail "exactly_incoming shape");
  (match Requirement.if_connected_then ~from_:[ 0 ] ~via:1 ~to_:[ 2 ] with
  | Requirement.Conditional_connect ([ (0, 1) ], [ (1, 2) ]) -> ()
  | _ -> Alcotest.fail "if_connected_then shape");
  (match Requirement.node_balance ~node:1 ~supply:[ (0, 5.) ]
           ~demand:[ (2, 3.) ] with
  | Requirement.Linear_edges ([ ((0, 1), 5.); ((1, 2), -3.) ],
                              Requirement.Ge, 0.) -> ()
  | _ -> Alcotest.fail "node_balance shape");
  match Requirement.forbid_edge 3 4 with
  | Requirement.Edge_card ([ (3, 4) ], Requirement.Le, 0) -> ()
  | _ -> Alcotest.fail "forbid_edge shape"

(* ------------------------------------------------------------------ *)
(* Template                                                            *)

let three_stage () =
  (* 2 sources (type 0), 2 middles (type 1), 1 sink (type 2) *)
  let lib = sample_library () in
  let comp ty name = Library.instantiate lib ~type_id:ty ~name in
  let t =
    Template.create
      [| comp 0 "S1"; comp 0 "S2"; comp 1 "M1"; comp 1 "M2"; comp 2 "T" |]
  in
  Template.add_candidate_edge ~switch_cost:10. t 0 2;
  Template.add_candidate_edge ~switch_cost:10. t 0 3;
  Template.add_candidate_edge ~switch_cost:10. t 1 2;
  Template.add_candidate_edge ~switch_cost:10. t 1 3;
  Template.add_candidate_edge ~switch_cost:10. t 2 4;
  Template.add_candidate_edge ~switch_cost:10. t 3 4;
  Template.set_sources t [ 0; 1 ];
  Template.set_sinks t [ 4 ];
  Template.set_type_chain t [ 0; 1; 2 ];
  t

let test_template_structure () =
  let t = three_stage () in
  check_int "nodes" 5 (Template.node_count t);
  check_int "candidates" 6 (List.length (Template.candidate_edges t));
  checkb "candidate" true (Template.is_candidate t 0 2);
  checkb "non-candidate" false (Template.is_candidate t 2 0);
  checkf "switch cost" 10. (Template.switch_cost t 0 2);
  checkf "switch cost symmetric key" 10. (Template.switch_cost t 2 0);
  Alcotest.(check (list int)) "sources" [ 0; 1 ] (Template.sources t);
  match Template.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_template_partition () =
  let t = three_stage () in
  let p = Template.partition t in
  check_int "types" 3 (Partition.type_count p);
  Alcotest.(check (list int)) "type 1 members" [ 2; 3 ]
    (Partition.members p 1);
  Alcotest.(check string) "type named after first member" "S1"
    (Partition.name p 0)

let test_template_config_and_cost () =
  let t = three_stage () in
  let config = Template.config_of_edges t [ (0, 2); (2, 4) ] in
  (* S1 (5) + M1 (7) + T (0) + two switches (20) = 32 *)
  checkf "configuration cost (Eq. 1)" 32. (Template.configuration_cost t config);
  Alcotest.(check (list int)) "used nodes" [ 0; 2; 4 ]
    (Template.used_in_config t config);
  match Template.config_of_edges t [ (4, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-candidate edges must be rejected"

let test_template_pair_switch_counted_once () =
  let lib = sample_library () in
  let comp ty name = Library.instantiate lib ~type_id:ty ~name in
  let t = Template.create [| comp 0 "A"; comp 2 "B" |] in
  Template.add_candidate_pair ~switch_cost:10. t 0 1;
  let both = Template.config_of_edges t [ (0, 1); (1, 0) ] in
  (* A (5) + B (0) + ONE switch (10) *)
  checkf "bidirectional pair single switch" 15.
    (Template.configuration_cost t both)

let test_template_validate_errors () =
  let lib = sample_library () in
  let comp ty name = Library.instantiate lib ~type_id:ty ~name in
  let t = Template.create [| comp 0 "A"; comp 2 "B" |] in
  (match Template.validate t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing sources must fail validation");
  Template.set_sources t [ 0 ];
  Template.set_sinks t [ 0 ];
  match Template.validate t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlapping sources/sinks must fail"

let test_expand_redundant_pairs () =
  (* S → M1, M1 ~ M2 joined by an edge, M1 → T:
     expansion must let M2 inherit S as predecessor and T as successor. *)
  let lib = sample_library () in
  let comp ty name = Library.instantiate lib ~type_id:ty ~name in
  let t =
    Template.create [| comp 0 "S"; comp 1 "M1"; comp 1 "M2"; comp 2 "T" |]
  in
  Template.add_candidate_edge t 0 1;
  Template.add_candidate_edge t 1 2;
  Template.add_candidate_edge t 1 3;
  Template.set_sources t [ 0 ];
  Template.set_sinks t [ 3 ];
  let config = Template.config_of_edges t [ (0, 1); (1, 2); (1, 3) ] in
  let expanded = Template.expand_redundant_pairs t config in
  checkb "M2 inherits pred S" true (Digraph.mem_edge expanded 0 2);
  checkb "M2 inherits succ T" true (Digraph.mem_edge expanded 2 3);
  (* expansion only adds edges *)
  List.iter
    (fun (u, v) -> checkb "original kept" true (Digraph.mem_edge expanded u v))
    (Digraph.edges config)

let test_usage_order_constructor () =
  match Requirement.use_in_order [ 3; 1; 2 ] with
  | Requirement.Usage_order [ 3; 1; 2 ] -> ()
  | _ -> Alcotest.fail "use_in_order shape"

(* Source S -> interchangeable M1, M2, M3 -> sink T, each middle fed by
   S and feeding T through a contactor of cost 2, with [tweak] applied
   before the middles are declared interchangeable. *)
let slots_template tweak =
  let comp ?(cost = 10.) ty name =
    Component.make ~name ~type_id:ty ~cost ~fail_prob:0.01 ~capacity:5. ()
  in
  let mids = [ 1; 2; 3 ] in
  let t =
    Template.create
      [| comp 0 "S"; comp 1 "M1"; comp 1 "M2"; comp 1 "M3"; comp 2 "T" |]
  in
  List.iter
    (fun m ->
      Template.add_candidate_edge ~switch_cost:2. t 0 m;
      Template.add_candidate_edge ~switch_cost:2. t m 4)
    mids;
  Template.set_sources t [ 0 ];
  Template.set_sinks t [ 4 ];
  Template.add_requirement t (Requirement.require_powered 4);
  Template.add_requirement t
    (Requirement.at_least_incoming ~to_:4 ~from_:mids 1);
  List.iter
    (fun m ->
      Template.add_requirement t
        (Requirement.if_connected_then ~from_:[ 0 ] ~via:m ~to_:[ 4 ]))
    mids;
  tweak t;
  Template.add_requirement t (Requirement.use_in_order mids);
  t

let test_usage_order_declarations_checked () =
  let rejects what frag tweak =
    match Template.validate_all (slots_template tweak) with
    | Ok () -> Alcotest.failf "%s: mis-declared pair accepted" what
    | Error vs ->
        checkb
          (Printf.sprintf "%s reported (%s)" what (String.concat "; " vs))
          true
          (List.exists
             (fun v ->
               let contains s sub =
                 let n = String.length s and k = String.length sub in
                 let rec go i =
                   i + k <= n && (String.sub s i k = sub || go (i + 1))
                 in
                 go 0
               in
               contains v frag)
             vs)
  in
  (match Template.validate_all (slots_template ignore) with
  | Ok () -> ()
  | Error vs -> Alcotest.failf "symmetric slots rejected: %s" (String.concat "; " vs));
  rejects "extra candidate edge" "candidate successors" (fun t ->
      Template.add_candidate_edge ~switch_cost:2. t 2 3);
  rejects "requirement naming one slot" "requirements" (fun t ->
      Template.add_requirement t (Requirement.forbid_edge 0 3));
  rejects "requirement weighting one slot" "requirements" (fun t ->
      Template.add_requirement t
        (Requirement.supply_covers_demand ~providers:[ (1, 5.); (2, 4.); (3, 5.) ]
           ~consumers:[ (4, 5.) ]));
  rejects "a sink declared" "sink 4" (fun t ->
      Template.add_requirement t (Requirement.use_in_order [ 3; 4 ]));
  (* attributes: rebuild with one middle priced differently *)
  let priced =
    let t = slots_template ignore in
    let cs = Template.components t in
    cs.(2) <- { (cs.(2)) with Component.cost = 11. };
    let t' = Template.create cs in
    List.iter
      (fun (u, v) -> Template.add_candidate_edge ~switch_cost:2. t' u v)
      (Template.candidate_edges t);
    Template.set_sources t' [ 0 ];
    Template.set_sinks t' [ 4 ];
    List.iter (Template.add_requirement t') (Template.requirements t);
    t'
  in
  match Template.validate_all priced with
  | Ok () -> Alcotest.fail "differently priced slots accepted"
  | Error vs ->
      checkb "cost difference named" true
        (List.exists (fun v -> String.ends_with ~suffix:"differ in cost" v) vs)

let test_requirement_pp_total () =
  (* the printer covers every constructor without raising *)
  let reqs =
    [ Requirement.at_least_connections ~from_:0 ~to_:[ 1; 2 ] 1;
      Requirement.node_balance ~node:1 ~supply:[ (0, 2.) ]
        ~demand:[ (2, 1.) ];
      Requirement.if_connected_then ~from_:[ 0 ] ~via:1 ~to_:[ 2 ];
      Requirement.supply_covers_demand ~providers:[ (0, 5.) ]
        ~consumers:[ (2, 3.) ];
      Requirement.require_powered 2;
      Requirement.use_in_order [ 0; 1 ] ]
  in
  List.iter
    (fun r ->
      let s = Fmt.to_to_string Requirement.pp r in
      checkb "non-empty rendering" true (String.length s > 0))
    reqs

let test_expand_no_same_type_edges () =
  let t = three_stage () in
  let config = Template.config_of_edges t [ (0, 2); (2, 4) ] in
  let expanded = Template.expand_redundant_pairs t config in
  checkb "no change without same-type edges" true
    (Digraph.equal config expanded)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "archlib"
    [ ( "component",
        [ quick "validation" test_component_validation ] );
      ( "library",
        [ quick "lookup" test_library_lookup;
          quick "instantiate" test_library_instantiate ] );
      ( "requirement",
        [ quick "smart constructor shapes" test_requirement_shapes;
          quick "usage order" test_usage_order_constructor;
          quick "usage order declarations checked"
            test_usage_order_declarations_checked;
          quick "printer is total" test_requirement_pp_total ] );
      ( "template",
        [ quick "structure" test_template_structure;
          quick "partition" test_template_partition;
          quick "configurations and Eq. 1 cost" test_template_config_and_cost;
          quick "bidirectional switch counted once"
            test_template_pair_switch_counted_once;
          quick "validation errors" test_template_validate_errors;
          quick "redundant pair expansion" test_expand_redundant_pairs;
          quick "expansion is identity without same-type edges"
            test_expand_no_same_type_edges ] ) ]
