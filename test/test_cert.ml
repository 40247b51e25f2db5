(* Tests for the certification layer: certificate generation and the
   arithmetic-only checker (including tampered certificates), ILP-MR
   chains end to end, the explanation report, the Chrome trace export
   and the GC gauges. *)

module Json = Archex_obs.Json
module Model = Milp.Model
module Lin_expr = Milp.Lin_expr
module Cert = Archex_cert
module Explain = Archex_explain

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_error ~what ~needle = function
  | Ok _ -> Alcotest.failf "%s: expected an error mentioning %S" what needle
  | Error msg ->
      if not (contains ~needle msg) then
        Alcotest.failf "%s: error %S does not mention %S" what msg needle

let cert_exn = function
  | Ok c -> c
  | Error e -> Alcotest.failf "certify failed: %s" e

(* min x + 2y  s.t.  x + y >= 1  over Booleans: optimum x=1, y=0, cost 1 *)
let tiny_model () =
  let m = Model.create () in
  let x = Model.bool_var ~name:"x" m in
  let y = Model.bool_var ~name:"y" m in
  Model.set_objective m
    (Lin_expr.add (Lin_expr.var x) (Lin_expr.scale 2. (Lin_expr.var y)));
  Model.add_constraint ~name:"cover" m
    (Lin_expr.add (Lin_expr.var x) (Lin_expr.var y))
    Model.Ge 1.;
  m

(* ------------------------------------------------------------------ *)
(* Certify + check round trip                                          *)

let test_certify_roundtrip () =
  let m = tiny_model () in
  let cert = cert_exn (Cert.certify m ~incumbent:(Some (1., [| 1.; 0. |]))) in
  match Cert.check cert with
  | Error e -> Alcotest.failf "checker rejected a fresh certificate: %s" e
  | Ok s ->
      checkb "objective" true (s.Cert.objective = Some 1.);
      check_int "vars" 2 s.Cert.vars;
      check_int "rows" 1 s.Cert.rows;
      checkb "tree has nodes" true (s.Cert.tree_nodes >= 1)

let test_certify_rejects_wrong_incumbents () =
  let m = tiny_model () in
  check_error ~what:"infeasible incumbent" ~needle:"cover"
    (Cert.certify m ~incumbent:(Some (0., [| 0.; 0. |])));
  check_error ~what:"mis-priced incumbent" ~needle:"objective"
    (Cert.certify m ~incumbent:(Some (5., [| 1.; 0. |])));
  (* feasible but suboptimal: the transparent search finds the better
     point, i.e. the claimed solver result was wrong *)
  check_error ~what:"suboptimal incumbent" ~needle:"better than the incumbent"
    (Cert.certify m ~incumbent:(Some (2., [| 0.; 1. |])))

let test_infeasibility_certificate () =
  let m = Model.create () in
  let x = Model.bool_var ~name:"x" m in
  Model.add_constraint ~name:"up" m (Lin_expr.var x) Model.Ge 1.;
  Model.add_constraint ~name:"down" m (Lin_expr.var x) Model.Le 0.;
  (* claiming infeasibility of a feasible model must fail *)
  let feasible = tiny_model () in
  check_error ~what:"bogus infeasibility claim" ~needle:"feasible"
    (Cert.certify feasible ~incumbent:None);
  let cert = cert_exn (Cert.certify m ~incumbent:None) in
  match Cert.check cert with
  | Error e -> Alcotest.failf "infeasibility certificate rejected: %s" e
  | Ok s -> checkb "no objective" true (s.Cert.objective = None)

(* ------------------------------------------------------------------ *)
(* Differential: random 0-1 models against the brute-force oracle      *)

(* A random pure 0-1 model: rows of mixed sense with integral or
   two-decimal coefficients of both signs, some variables fixed.  Row
   right-hand sides come from a hidden point plus a slack, which a third
   of the models let go negative, so about a third come out infeasible.
   Two-decimal data keeps every row either met to rounding error or
   missed by at least 0.01, clear of both tolerances. *)
type spec = {
  nvars : int;
  rows : ((int * float) list * Model.cmp * float) list;
  obj : (int * float) list;
  fixed : (int * float) list;
}

let gen_spec =
  QCheck.Gen.(
    let* nvars = int_range 6 12 in
    let* point = array_repeat nvars bool in
    let* tight = frequencyl [ (2, false); (1, true) ] in
    let at x = if point.(x) then 1. else 0. in
    let coef integral =
      if integral then map float_of_int (int_range (-4) 4)
      else map (fun k -> float_of_int k /. 100.) (int_range (-400) 400)
    in
    let row =
      let* k = int_range 1 5 in
      let* integral = bool in
      let* terms =
        list_repeat k (pair (int_range 0 (nvars - 1)) (coef integral))
      in
      let* cmp = oneofl [ Model.Ge; Model.Le; Model.Eq ] in
      let* slack =
        map
          (fun s -> float_of_int s /. 2.)
          (int_range (if tight then -2 else 0) 4)
      in
      let v =
        Float.round
          (List.fold_left (fun acc (x, a) -> acc +. (a *. at x)) 0. terms
          *. 100.)
        /. 100.
      in
      let rhs =
        match cmp with
        | Model.Ge -> v -. slack
        | Model.Le -> v +. slack
        | Model.Eq -> if slack < 0. then v +. slack else v
      in
      return (terms, cmp, rhs)
    in
    let* nrows = int_range 3 15 in
    let* rows = list_repeat nrows row in
    let* integral = bool in
    let* obj = list_repeat nvars (coef integral) in
    let* fixed =
      list_repeat nvars (frequency [ (4, return false); (1, return true) ])
    in
    return
      { nvars;
        rows;
        obj = List.mapi (fun x a -> (x, a)) obj;
        fixed =
          List.concat
            (List.mapi (fun x f -> if f then [ (x, at x) ] else []) fixed) })

let print_spec s =
  let terms ts =
    String.concat " + "
      (List.map (fun (x, a) -> Printf.sprintf "%g x%d" a x) ts)
  in
  Printf.sprintf "%d vars, fixed [%s], min %s\n%s" s.nvars
    (String.concat "; "
       (List.map (fun (x, v) -> Printf.sprintf "x%d=%g" x v) s.fixed))
    (terms s.obj)
    (String.concat "\n"
       (List.map
          (fun (ts, cmp, rhs) ->
            Printf.sprintf "  %s %s %g" (terms ts)
              (match cmp with
              | Model.Ge -> ">="
              | Model.Le -> "<="
              | Model.Eq -> "=")
              rhs)
          s.rows))

let build_spec s =
  let m = Model.create () in
  ignore (Model.bool_vars m s.nvars);
  List.iter (fun (x, v) -> Model.fix m x v) s.fixed;
  List.iter
    (fun (terms, cmp, rhs) ->
      Model.add_constraint m (Lin_expr.of_terms terms) cmp rhs)
    s.rows;
  Model.set_objective m (Lin_expr.of_terms s.obj);
  m

let cert_nodes cert =
  match Json.mem "nodes" cert with
  | Some (Json.Num n) -> int_of_float n
  | _ -> failwith "certificate has no node count"

(* An Optimal model certifies with the brute-force optimum and refuses an
   infeasibility claim; an Infeasible one certifies that claim.  Either
   way the checker accepts the certificate and counts the tree the
   generator reported, and a budget of one node stops any larger search. *)
let prop_certify_matches_brute =
  QCheck.Test.make ~name:"certify/check agree with brute force" ~count:300
    (QCheck.make gen_spec ~print:print_spec)
    (fun s ->
      let m = build_spec s in
      let incumbent, objective =
        match Milp.Brute.solve m with
        | Milp.Brute.Optimal { objective; solution } ->
            (Some (objective, solution), Some objective)
        | Milp.Brute.Infeasible -> (None, None)
      in
      (if objective <> None then
         match Cert.certify m ~incumbent:None with
         | Ok _ ->
             QCheck.Test.fail_report "feasible model certified infeasible"
         | Error e ->
             if not (contains ~needle:"claimed infeasible" e) then
               QCheck.Test.fail_reportf "unexpected error %s" e);
      match Cert.certify m ~incumbent with
      | Error e -> QCheck.Test.fail_reportf "certify failed: %s" e
      | Ok cert -> (
          let nodes = cert_nodes cert in
          (match Cert.check cert with
          | Error e -> QCheck.Test.fail_reportf "check failed: %s" e
          | Ok sum ->
              if sum.Cert.objective <> objective then
                QCheck.Test.fail_report "checked objective differs";
              if sum.Cert.tree_nodes <> nodes then
                QCheck.Test.fail_reportf "check counted %d nodes, cert says %d"
                  sum.Cert.tree_nodes nodes);
          nodes = 1
          ||
          match Cert.certify ~node_budget:1 m ~incumbent with
          | Ok _ -> QCheck.Test.fail_report "node budget 1 was not enforced"
          | Error e -> contains ~needle:"node budget exceeded" e))

(* ------------------------------------------------------------------ *)
(* Tampered certificates                                               *)

let set_field obj key v =
  match obj with
  | Json.Obj fields ->
      Json.Obj (List.map (fun (k, w) -> if k = key then (k, v) else (k, w))
                  fields)
  | j -> j

let get_field obj key =
  match Json.mem key obj with
  | Some v -> v
  | None -> Alcotest.failf "certificate has no %S field" key

let test_tampered_certificates_rejected () =
  let m = tiny_model () in
  let cert = cert_exn (Cert.certify m ~incumbent:(Some (1., [| 1.; 0. |]))) in
  let incumbent = get_field cert "incumbent" in
  (* flip an assignment bit: x=1 becomes x=0, the incumbent no longer
     satisfies the cover row *)
  let flipped =
    set_field cert "incumbent"
      (set_field incumbent "solution" (Json.Arr [ Json.Num 0.; Json.Num 0. ]))
  in
  check_error ~what:"flipped assignment bit" ~needle:"cover"
    (Cert.check flipped);
  (* flip the other way: still feasible but the claimed objective is now
     wrong for the embedded solution *)
  let flipped =
    set_field cert "incumbent"
      (set_field incumbent "solution" (Json.Arr [ Json.Num 1.; Json.Num 1. ]))
  in
  check_error ~what:"objective mismatch" ~needle:"objective"
    (Cert.check flipped);
  (* weaken the pruning argument: claim the whole space is bound-pruned.
     With incumbent 1 and integral costs the gap is 1 - eps, and the
     min achievable objective is 0 — not justified *)
  let weakened = set_field cert "tree" (Json.Obj [ ("leaf", Json.Str "bound") ]) in
  check_error ~what:"weakened bound leaf" ~needle:"not justified"
    (Cert.check weakened);
  (* claim a better objective than the solution achieves *)
  let lowered =
    set_field cert "incumbent" (set_field incumbent "objective" (Json.Num 0.))
  in
  check_error ~what:"lowered claimed objective" ~needle:"objective"
    (Cert.check lowered);
  (* errors name the node by its path from the root; over the tree
     y ? bound : (x ? bound : infeasible cover), built by hand *)
  let bound = Json.Obj [ ("leaf", Json.Str "bound") ] in
  let infeasible row =
    Json.Obj [ ("leaf", Json.Str "infeasible"); ("row", Json.Num row) ]
  in
  let tree zero_zero zero_one =
    Json.Obj
      [ ("var", Json.Num 1.);
        ( "zero",
          Json.Obj
            [ ("var", Json.Num 0.); ("zero", zero_zero); ("one", zero_one) ]
        );
        ("one", bound) ]
  in
  (match Cert.check (set_field cert "tree" (tree (infeasible 0.) bound)) with
  | Ok s -> check_int "hand-built tree nodes" 5 s.Cert.tree_nodes
  | Error e -> Alcotest.failf "hand-built tree rejected: %s" e);
  check_error ~what:"infeasible leaf over a satisfied row"
    ~needle:"tree.zero.one: row 0 (cover) is still satisfiable"
    (Cert.check (set_field cert "tree" (tree (infeasible 0.) (infeasible 0.))));
  check_error ~what:"fractional row index"
    ~needle:"tree.zero.zero.row must be an integer"
    (Cert.check (set_field cert "tree" (tree (infeasible 0.5) bound)))

(* ------------------------------------------------------------------ *)
(* Chains                                                              *)

let test_chain_roundtrip_and_tamper () =
  let m1 = tiny_model () in
  let c1 = cert_exn (Cert.certify m1 ~incumbent:(Some (1., [| 1.; 0. |]))) in
  (* iteration 2: the learned row y >= 1 pushes the optimum to cost 2 *)
  let m2 = tiny_model () in
  let learned_name = "learn_y" in
  Model.add_constraint ~name:learned_name m2
    (Lin_expr.var 1) Model.Ge 1.;
  let c2 = cert_exn (Cert.certify m2 ~incumbent:(Some (2., [| 0.; 1. |]))) in
  let learned = [ Json.Obj [ ("name", Json.Str learned_name) ] ] in
  let chain =
    Cert.chain ~r_star:1e-3
      ~iterations:[ (c1, learned); (c2, []) ]
      ~final_objective:(Some 2.)
  in
  (match Cert.check_chain chain with
  | Error e -> Alcotest.failf "fresh chain rejected: %s" e
  | Ok s ->
      check_int "iterations" 2 s.Cert.iterations;
      checkb "final objective" true (s.Cert.final_objective = Some 2.);
      checkb "total nodes" true (s.Cert.total_tree_nodes >= 2));
  (* declared final objective disagrees with the last incumbent *)
  check_error ~what:"wrong final objective" ~needle:"final"
    (Cert.check_chain
       (set_field chain "final"
          (Json.Obj [ ("objective", Json.Num 1.) ])));
  (* a learned constraint that never shows up in the next model *)
  let ghost = [ Json.Obj [ ("name", Json.Str "ghost_row") ] ] in
  check_error ~what:"learned row missing from next model" ~needle:"ghost_row"
    (Cert.check_chain
       (Cert.chain ~r_star:1e-3
          ~iterations:[ (c1, ghost); (c2, []) ]
          ~final_objective:(Some 2.)));
  (* a non-final iteration that learned nothing cannot justify the loop
     having continued *)
  check_error ~what:"chain continues without learning" ~needle:"learned"
    (Cert.check_chain
       (Cert.chain ~r_star:1e-3
          ~iterations:[ (c1, []); (c2, []) ]
          ~final_objective:(Some 2.)))

(* ------------------------------------------------------------------ *)
(* ILP-MR end to end                                                   *)

let test_mr_chain_end_to_end () =
  let inst = Eps.Eps_template.base () in
  match
    Archex.Ilp_mr.run ~certify:true inst.Eps.Eps_template.template
      ~r_star:2e-4
  with
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "smoke instance unfeasible"
  | Archex.Synthesis.Synthesized (_, trace, _) -> (
      checkb "at least one iteration" true (trace <> []);
      List.iter
        (fun it ->
          match it.Archex.Ilp_mr.cert with
          | Some (Ok _) -> ()
          | Some (Error e) ->
              Alcotest.failf "iteration %d failed to certify: %s"
                it.Archex.Ilp_mr.index e
          | None -> Alcotest.failf "iteration %d has no certificate"
                      it.Archex.Ilp_mr.index)
        trace;
      match Archex.Ilp_mr.certificate_of_trace ~r_star:2e-4 trace with
      | Error e -> Alcotest.failf "chain assembly failed: %s" e
      | Ok chain -> (
          match Cert.check_chain chain with
          | Error e -> Alcotest.failf "chain check failed: %s" e
          | Ok s ->
              check_int "one cert per iteration" (List.length trace)
                s.Cert.iterations;
              (* the explanation renders against the final model *)
              let last = List.nth trace (List.length trace - 1) in
              let md =
                Explain.markdown
                  ~learned:[]
                  ~model:last.Archex.Ilp_mr.model
                  ~solution:last.Archex.Ilp_mr.solution ()
              in
              checkb "explanation mentions cost attribution" true
                (contains ~needle:"cost attribution" md)))

(* Known answers: the certificate shapes of fixed instances.  A change to
   the certifying search's branching or leaf rules moves these counts. *)
let test_mr_known_answer () =
  let inst = Eps.Eps_template.make ~generators:2 in
  match
    Archex.Ilp_mr.run ~certify:true inst.Eps.Eps_template.template
      ~r_star:1e-4
  with
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "g=2 unfeasible"
  | Archex.Synthesis.Synthesized (arch, trace, _) -> (
      let nodes =
        List.map
          (fun it ->
            match it.Archex.Ilp_mr.cert with
            | Some (Ok c) -> cert_nodes c
            | Some (Error e) -> Alcotest.failf "certify failed: %s" e
            | None -> Alcotest.fail "iteration without certificate")
          trace
      in
      Alcotest.(check (list int)) "tree nodes per iteration"
        [ 253; 247; 283; 225 ] nodes;
      Alcotest.(check (float 1e-9)) "final cost" 18012.
        arch.Archex.Synthesis.cost;
      match
        Result.bind
          (Archex.Ilp_mr.certificate_of_trace ~r_star:1e-4 trace)
          Cert.check_chain
      with
      | Error e -> Alcotest.failf "chain rejected: %s" e
      | Ok s ->
          check_int "iterations" 4 s.Cert.iterations;
          check_int "total tree nodes" 1008 s.Cert.total_tree_nodes;
          checkb "final objective" true (s.Cert.final_objective = Some 18012.))

(* Each iteration keeps the model it solved: its certificate embeds that
   model.  Checked after the run, so later learning must not have
   reached back into an earlier iteration's copy. *)
let test_mr_iteration_models () =
  let inst = Eps.Eps_template.make ~generators:2 in
  match
    Archex.Ilp_mr.run ~certify:true inst.Eps.Eps_template.template
      ~r_star:1e-4
  with
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "g=2 unfeasible"
  | Archex.Synthesis.Synthesized (_, trace, _) ->
      checkb "several iterations" true (List.length trace > 1);
      List.iter
        (fun it ->
          match it.Archex.Ilp_mr.cert with
          | Some (Ok c) ->
              checkb
                (Printf.sprintf "iteration %d certifies its own model"
                   it.Archex.Ilp_mr.index)
                true
                (Json.equal (get_field c "model")
                   (Model.to_json it.Archex.Ilp_mr.model))
          | Some (Error e) -> Alcotest.failf "certify failed: %s" e
          | None -> Alcotest.fail "iteration without certificate")
        trace

(* ILP-AR's monolithic model has real-coefficient rows. *)
let test_ar_known_answer () =
  let inst = Eps.Eps_template.make ~generators:2 in
  match
    Archex.Ilp_ar.run ~certify:true inst.Eps.Eps_template.template
      ~r_star:3e-4
  with
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "g=2 unfeasible"
  | Archex.Synthesis.Synthesized (_, info, _) -> (
      match info.Archex.Ilp_ar.cert with
      | None -> Alcotest.fail "no certificate"
      | Some (Error e) -> Alcotest.failf "certify failed: %s" e
      | Some (Ok cert) -> (
          check_int "tree nodes" 861 (cert_nodes cert);
          match Cert.check cert with
          | Error e -> Alcotest.failf "certificate rejected: %s" e
          | Ok s -> check_int "checked tree nodes" 861 s.Cert.tree_nodes))

(* ------------------------------------------------------------------ *)
(* Explanation report                                                  *)

let test_explain_markdown () =
  let m = tiny_model () in
  let md =
    Explain.markdown
      ~reliability:[ ("SINK", 5e-7, 2e-6); ("BAD", 3e-6, 2e-6) ]
      ~learned:[ ("cover", 1) ]
      ~model:m ~solution:[| 1.; 0. |] ()
  in
  checkb "selected variable listed" true (contains ~needle:"`x`" md);
  checkb "binding constraint listed" true (contains ~needle:"`cover`" md);
  checkb "reliability margin table" true
    (contains ~needle:"Reliability margin" md);
  checkb "missed requirement flagged" true
    (contains ~needle:"requirement is missed" md);
  checkb "learned provenance with status" true
    (contains ~needle:"| `cover` | 1 | **binding** |" md);
  (* classify: strict inequality is slack, equality is binding *)
  let row = List.hd (Model.constraints m) in
  checkb "binding at the boundary" true
    (Explain.classify row (fun _ -> 0.5) = Explain.Binding);
  (match Explain.classify row (fun _ -> 1.) with
  | Explain.Slack s -> Alcotest.(check (float 1e-9)) "slack of 1" 1. s
  | _ -> Alcotest.fail "expected slack");
  match Explain.classify row (fun _ -> 0.) with
  | Explain.Violated v -> Alcotest.(check (float 1e-9)) "violated by 1" 1. v
  | _ -> Alcotest.fail "expected violation"

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

let test_chrome_export () =
  let span ~ts ~ev extra =
    Json.Obj
      ([ ("ts", Json.Num ts); ("ev", Json.Str ev);
         ("name", Json.Str "solve"); ("id", Json.Num 1.);
         ("depth", Json.Num 0.) ]
      @ extra)
  in
  let records =
    [ span ~ts:10. ~ev:"begin" [ ("attrs", Json.Obj []) ];
      Json.Obj
        [ ("ts", Json.Num 10.5); ("ev", Json.Str "event");
          ("name", Json.Str "progress"); ("depth", Json.Num 1.);
          ("attrs", Json.Obj [ ("k", Json.Num 1.) ]) ];
      span ~ts:11. ~ev:"end" [ ("dur", Json.Num 1.) ];
      (* a second span left unclosed: must come out truncated, dur 0 *)
      span ~ts:12. ~ev:"begin" [ ("attrs", Json.Obj []) ] ]
  in
  match Archex_obs.Chrome_trace.of_events records with
  | Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr all_events) ->
          let ph e = Option.bind (Json.mem "ph" e) Json.to_str in
          (* one thread_name metadata record labels the single track *)
          let meta, events =
            List.partition (fun e -> ph e = Some "M") all_events
          in
          (match meta with
          | [ m ] ->
              checkb "track labeled main" true
                (match Json.mem "args" m with
                | Some args ->
                    Json.mem "name" args = Some (Json.Str "main")
                | None -> false)
          | l -> Alcotest.failf "expected 1 metadata event, got %d"
                   (List.length l));
          check_int "three converted events" 3 (List.length events);
          check_int "two complete spans" 2
            (List.length (List.filter (fun e -> ph e = Some "X") events));
          check_int "one instant" 1
            (List.length (List.filter (fun e -> ph e = Some "i") events));
          let closed =
            List.find
              (fun e ->
                ph e = Some "X" && Json.mem "dur" e = Some (Json.Num 1e6))
              events
          in
          checkb "timestamps rebased to first record, in µs" true
            (Json.mem "ts" closed = Some (Json.Num 0.));
          let truncated =
            List.find
              (fun e ->
                ph e = Some "X" && Json.mem "dur" e = Some (Json.Num 0.))
              events
          in
          checkb "unclosed span marked truncated" true
            (match Json.mem "args" truncated with
            | Some args -> Json.mem "truncated" args = Some (Json.Bool true)
            | None -> false)
      | _ -> Alcotest.fail "no traceEvents array")
  | j -> Alcotest.failf "unexpected export %s" (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* GC gauges                                                           *)

let test_gc_gauges () =
  let m = Archex_obs.Metrics.create () in
  Archex_obs.Gc_metrics.sample m;
  let present name =
    match Archex_obs.Metrics.value m name with
    | Some v -> checkb (name ^ " non-negative") true (v >= 0.)
    | None -> Alcotest.failf "gauge %s missing after sample" name
  in
  List.iter present
    [ "gc.minor_collections"; "gc.major_collections"; "gc.compactions";
      "gc.heap_words"; "gc.top_heap_words"; "gc.minor_words";
      "gc.promoted_words" ];
  (* sampling a disabled registry stays a no-op *)
  Archex_obs.Gc_metrics.sample Archex_obs.Metrics.null;
  checkb "null registry untouched" true
    (Archex_obs.Metrics.value Archex_obs.Metrics.null "gc.heap_words" = None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cert"
    [ ( "certify",
        [ Alcotest.test_case "round trip" `Quick test_certify_roundtrip;
          Alcotest.test_case "wrong incumbents rejected" `Quick
            test_certify_rejects_wrong_incumbents;
          Alcotest.test_case "infeasibility certificate" `Quick
            test_infeasibility_certificate;
          QCheck_alcotest.to_alcotest prop_certify_matches_brute ] );
      ( "checker",
        [ Alcotest.test_case "tampered certificates rejected" `Quick
            test_tampered_certificates_rejected;
          Alcotest.test_case "chain round trip + tampering" `Quick
            test_chain_roundtrip_and_tamper ] );
      ( "ilp-mr",
        [ Alcotest.test_case "certified run end to end" `Quick
            test_mr_chain_end_to_end;
          Alcotest.test_case "known answer g=2" `Quick test_mr_known_answer;
          Alcotest.test_case "iteration models are the certified ones"
            `Quick test_mr_iteration_models ]
      );
      ( "ilp-ar",
        [ Alcotest.test_case "known answer g=2" `Quick test_ar_known_answer ]
      );
      ( "explain",
        [ Alcotest.test_case "markdown content" `Quick
            test_explain_markdown ] );
      ( "chrome-trace",
        [ Alcotest.test_case "export structure" `Quick test_chrome_export ] );
      ( "gc-metrics",
        [ Alcotest.test_case "gauges sampled" `Quick test_gc_gauges ] ) ]
