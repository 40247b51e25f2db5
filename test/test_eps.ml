(* Tests for the aircraft EPS case study: Table I attributes, template
   structure, requirement behaviour and the base synthesis flow. *)

module Digraph = Netgraph.Digraph
module Partition = Netgraph.Partition
module Template = Archlib.Template
module Component = Archlib.Component

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)

let test_table1_attributes () =
  let lib = Eps.Eps_library.library in
  Alcotest.(check string) "gen name" "GEN"
    (Archlib.Library.type_name lib Eps.Eps_library.gen);
  checkf 1e-9 "bus cost" 2000.
    (Archlib.Library.proto lib Eps.Eps_library.ac_bus).Archlib.Library.cost;
  checkf 1e-9 "rectifier cost" 2000.
    (Archlib.Library.proto lib Eps.Eps_library.rectifier).Archlib.Library.cost;
  checkf 1e-9 "contactor cost" 1000. (Archlib.Library.switch_cost lib);
  checkf 1e-12 "failing types at 2e-4" 2e-4
    (Archlib.Library.proto lib Eps.Eps_library.gen).Archlib.Library.fail_prob;
  checkf 1e-12 "DC buses perfect" 0.
    (Archlib.Library.proto lib Eps.Eps_library.dc_bus).Archlib.Library.fail_prob;
  (* generator pricing g/10 *)
  let lg1 = Eps.Eps_library.generator ~name:"LG1" ~rating:70. in
  checkf 1e-9 "LG1 cost" 7. lg1.Component.cost;
  checkf 1e-9 "LG1 rating" 70. lg1.Component.capacity

let test_base_template_shape () =
  let inst = Eps.Eps_template.base () in
  let t = inst.Eps.Eps_template.template in
  check_int "|V| = 21" 21 (Template.node_count t);
  check_int "5 generators" 5 (Array.length inst.Eps.Eps_template.generators);
  check_int "4 loads" 4 (Array.length inst.Eps.Eps_template.loads);
  (match Template.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* layered bipartite candidates: 5·4 + 4·4 + 4·4 + 4·4 = 68 *)
  check_int "candidate edges" 68 (List.length (Template.candidate_edges t));
  let part = Template.partition t in
  check_int "n = 5 types" 5 (Partition.type_count part);
  Alcotest.(check (option (list int))) "chain declared"
    (Some
       [ Eps.Eps_library.gen; Eps.Eps_library.ac_bus;
         Eps.Eps_library.rectifier; Eps.Eps_library.dc_bus;
         Eps.Eps_library.load ])
    (Template.type_chain t)

let test_scaling_family_sizes () =
  List.iter
    (fun g ->
      let inst = Eps.Eps_template.make ~generators:g in
      check_int
        (Printf.sprintf "|V| = 5·%d" g)
        (5 * g)
        (Template.node_count inst.Eps.Eps_template.template))
    [ 4; 6; 8; 10 ];
  match Eps.Eps_template.make ~generators:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero generators must be rejected"

let test_scaling_demand_within_supply () =
  List.iter
    (fun g ->
      let inst = Eps.Eps_template.make ~generators:g in
      let t = inst.Eps.Eps_template.template in
      let total arr =
        Array.fold_left
          (fun acc v -> acc +. (Template.component t v).Component.capacity)
          0. arr
      in
      checkb
        (Printf.sprintf "g=%d demand <= supply" g)
        true
        (total inst.Eps.Eps_template.loads
         <= total inst.Eps.Eps_template.generators))
    [ 1; 2; 4; 7; 10 ]

(* The templates' interchangeability declarations keep their promise:
   the symmetry rows Gen_ilp derives from them are sound. *)
let test_templates_validate () =
  let check what (inst : Eps.Eps_template.instance) =
    match Template.validate_all inst.Eps.Eps_template.template with
    | Ok () -> ()
    | Error vs -> Alcotest.failf "%s rejected: %s" what (String.concat "; " vs)
  in
  check "base" (Eps.Eps_template.base ());
  List.iter
    (fun g ->
      check (Printf.sprintf "g=%d" g) (Eps.Eps_template.make ~generators:g))
    [ 2; 3; 4; 5; 6 ]

let test_layer_of () =
  let inst = Eps.Eps_template.base () in
  Alcotest.(check string) "gen layer" "GEN"
    (Eps.Eps_template.layer_of inst inst.Eps.Eps_template.generators.(0));
  Alcotest.(check string) "load layer" "LOAD"
    (Eps.Eps_template.layer_of inst inst.Eps.Eps_template.loads.(0))

(* The minimal (connectivity + power only) synthesis: the Fig. 2a
   architecture — a single chain powering all loads, r ≈ 3p = 6e-4. *)
let test_minimal_architecture_matches_fig2a () =
  let inst = Eps.Eps_template.base () in
  let t = inst.Eps.Eps_template.template in
  let enc = Archex.Gen_ilp.encode t in
  match Archex.Gen_ilp.solve enc with
  | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
      Alcotest.fail "base template must be feasible"
  | Archex.Gen_ilp.Solved { config; objective = cost; _ } ->
      (* LG1 (7) + 1 AC bus + 1 TRU + 1 DC bus (3 × 2000) + 7 contactors *)
      checkf 1e-6 "minimal cost" 13007. cost;
      let report = Archex.Rel_analysis.analyze t config in
      checkf 1e-7 "r ≈ 6e-4 (Fig. 2a)" 5.999e-4
        report.Archex.Rel_analysis.worst;
      List.iter
        (fun (l, r) ->
          checkb (Printf.sprintf "load %d powered" l) true (r < 1e-2))
        report.Archex.Rel_analysis.per_sink

let test_loads_must_be_powered () =
  let inst = Eps.Eps_template.base () in
  let t = inst.Eps.Eps_template.template in
  let enc = Archex.Gen_ilp.encode t in
  match Archex.Gen_ilp.solve enc with
  | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
      Alcotest.fail "infeasible"
  | Archex.Gen_ilp.Solved { config; _ } ->
      Array.iter
        (fun l ->
          checkb "load has a DC feed" true (Digraph.in_degree config l >= 1))
        inst.Eps.Eps_template.loads

let test_rectifier_single_ac_feed () =
  let inst = Eps.Eps_template.base () in
  let t = inst.Eps.Eps_template.template in
  let enc = Archex.Gen_ilp.encode t in
  match Archex.Gen_ilp.solve enc with
  | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
      Alcotest.fail "infeasible"
  | Archex.Gen_ilp.Solved { config; _ } ->
      Array.iter
        (fun r ->
          checkb "at most one AC bus feeds a rectifier" true
            (Digraph.in_degree config r <= 1))
        inst.Eps.Eps_template.rectifiers

let test_diagram_renders () =
  let inst = Eps.Eps_template.base () in
  let t = inst.Eps.Eps_template.template in
  let enc = Archex.Gen_ilp.encode t in
  match Archex.Gen_ilp.solve enc with
  | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
      Alcotest.fail "infeasible"
  | Archex.Gen_ilp.Solved { config; _ } ->
      let text = Eps.Eps_diagram.render inst config in
      let starts_with prefix line =
        String.length line >= String.length prefix
        && String.sub line 0 (String.length prefix) = prefix
      in
      checkb "mentions layers" true
        (List.for_all
           (fun layer ->
             String.split_on_char '\n' text
             |> List.exists (starts_with layer))
           [ "GEN"; "AC BUS"; "TRU"; "DC BUS"; "LOAD" ]);
      checkb "draws contactors" true
        (List.length (String.split_on_char '=' text) > 5)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "eps"
    [ ( "library",
        [ quick "Table I attributes" test_table1_attributes ] );
      ( "template",
        [ quick "base shape" test_base_template_shape;
          quick "scaling family |V| = 5g" test_scaling_family_sizes;
          quick "demand within supply" test_scaling_demand_within_supply;
          quick "layer lookup" test_layer_of;
          quick "declarations validate" test_templates_validate ] );
      ( "synthesis",
        [ quick "minimal architecture = Fig. 2a"
            test_minimal_architecture_matches_fig2a;
          quick "loads powered" test_loads_must_be_powered;
          quick "rectifier fed by one AC bus" test_rectifier_single_ac_feed;
          quick "single-line diagram" test_diagram_renders ] ) ]
