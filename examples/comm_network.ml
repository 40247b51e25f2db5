(* Communication-network architecture selection — the "broader category of
   systems" the paper's conclusion points to.

   A ground station must deliver telemetry to a control center through a
   two-stage network: radio gateways and backbone routers.  Gateways and
   routers fail (p = 1e-3); links are guarded by managed switches (cost 50).
   Gateways cost 400, routers 900.  Each router accepts at most two
   gateway uplinks (port budget, an Eq. 2-style composition rule), and
   total gateway bandwidth must cover the control center's demand (Eq. 4
   style balance).

   We compare ILP-MR and ILP-AR across delivery requirements. *)

module Template = Archlib.Template
module Requirement = Archlib.Requirement
module Library = Archlib.Library
module Digraph = Netgraph.Digraph

let library =
  Library.make ~switch_cost:50.
    [ { Library.type_name = "STATION"; cost = 0.; fail_prob = 0. };
      { type_name = "GATEWAY"; cost = 400.; fail_prob = 1e-3 };
      { type_name = "ROUTER"; cost = 900.; fail_prob = 1e-3 };
      { type_name = "CENTER"; cost = 0.; fail_prob = 0. } ]

let gateways = 4
let routers = 4

let template () =
  let comp ?cost ?capacity ty name =
    Library.instantiate ?cost ?capacity library ~type_id:ty ~name
  in
  let components =
    Array.concat
      [ [| comp ~capacity:100. 0 "GS" |];
        Array.init gateways (fun i ->
            comp ~capacity:40. 1 (Printf.sprintf "GW%d" (i + 1)));
        Array.init routers (fun i ->
            comp ~capacity:100. 2 (Printf.sprintf "R%d" (i + 1)));
        [| comp ~capacity:100. 3 "CC" |] ]
  in
  let t = Template.create components in
  let station = 0 in
  let gw i = 1 + i in
  let rt i = 1 + gateways + i in
  let center = 1 + gateways + routers in
  for i = 0 to gateways - 1 do
    Template.add_candidate_edge ~switch_cost:50. t station (gw i);
    for j = 0 to routers - 1 do
      Template.add_candidate_edge ~switch_cost:50. t (gw i) (rt j)
    done
  done;
  for j = 0 to routers - 1 do
    Template.add_candidate_edge ~switch_cost:50. t (rt j) center
  done;
  Template.set_sources t [ station ];
  Template.set_sinks t [ center ];
  Template.set_type_chain t [ 0; 1; 2; 3 ];
  (* the control center is essential *)
  Template.add_requirement t (Requirement.require_powered center);
  Template.add_requirement t
    (Requirement.at_least_incoming ~to_:center
       ~from_:(List.init routers rt) 1);
  (* routers: at most two gateway uplinks; must have an uplink when used
     downstream *)
  for j = 0 to routers - 1 do
    Template.add_requirement t
      (Requirement.at_most_incoming ~to_:(rt j) ~from_:(List.init gateways gw)
         2);
    Template.add_requirement t
      (Requirement.Conditional_connect
         ( [ (rt j, center) ],
           List.init gateways (fun i -> (gw i, rt j)) ))
  done;
  (* gateways must be fed by the station when used *)
  for i = 0 to gateways - 1 do
    Template.add_requirement t
      (Requirement.Conditional_connect
         ( List.init routers (fun j -> (gw i, rt j)),
           [ (station, gw i) ] ))
  done;
  (* bandwidth balance: connected gateway capacity ≥ demand (60 units) *)
  Template.add_requirement t
    (Requirement.supply_covers_demand
       ~providers:(List.init gateways (fun i -> (gw i, 40.)))
       ~consumers:[ (center, 60.) ]);
  (* interchangeable gateways and routers: canonical order *)
  Template.add_requirement t
    (Requirement.use_in_order (List.init gateways gw));
  Template.add_requirement t
    (Requirement.use_in_order (List.init routers rt));
  t

let describe arch =
  Format.printf "  cost %g, exact delivery failure %.3e, %d links@."
    arch.Archex.Synthesis.cost arch.Archex.Synthesis.reliability
    (Digraph.edge_count arch.Archex.Synthesis.config)

let () =
  (* the interchangeability declarations must hold for the symmetry rows
     they lower to to keep the optimum *)
  (match Template.validate_all (template ()) with
  | Ok () -> ()
  | Error violations ->
      List.iter prerr_endline violations;
      exit 1);
  List.iter
    (fun r_star ->
      Format.printf "=== delivery failure requirement r* = %g ===@." r_star;
      Format.printf "ILP-MR:@.";
      (match Archex.Ilp_mr.run (template ()) ~r_star with
      | Archex.Synthesis.Synthesized (arch, trace, _) ->
          Format.printf "  %d iterations@." (List.length trace);
          describe arch
      | Archex.Synthesis.Unfeasible _ -> Format.printf "  UNFEASIBLE@.");
      Format.printf "ILP-AR:@.";
      match Archex.Ilp_ar.run (template ()) ~r_star with
      | Archex.Synthesis.Synthesized (arch, info, _) ->
          Format.printf "  approx estimate r~ = %.3e@."
            info.Archex.Ilp_ar.approx_estimate;
          describe arch
      | Archex.Synthesis.Unfeasible _ -> Format.printf "  UNFEASIBLE@.")
    [ 5e-3; 5e-6; 1e-8 ]
