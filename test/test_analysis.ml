(* Tests for the trace-analysis layer: profile aggregation and folded
   stacks, convergence timeline reconstruction, progress-event
   round-trips, and the benchmark artifact diff. *)

module Json = Archex_obs.Json
module Trace = Archex_obs.Trace
module Profile = Archex_obs.Profile
module Event = Archex_obs.Event
module Convergence = Archex_obs.Convergence
module Bench = Archex_obs.Bench_compare

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let node ?dur ?(children = []) name =
  { Trace.name; dur; attrs = []; children }

(* main(10s) ─ solve(6s) ─ presolve(1s)
            └ solve(2s)
   so solve self = (6-1) + 2 = 7, main self = 10 - 6 - 2 = 2. *)
let sample_forest () =
  [ node "main" ~dur:10.
      ~children:
        [ node "solve" ~dur:6. ~children:[ node "presolve" ~dur:1. ];
          node "solve" ~dur:2. ] ]

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)

let row p name =
  match List.find_opt (fun r -> r.Profile.name = name) p.Profile.rows with
  | Some r -> r
  | None -> Alcotest.failf "no row for %s" name

let test_profile_aggregation () =
  let p = Profile.of_tree (sample_forest ()) in
  check_int "span count" 4 p.Profile.span_count;
  checkf "root total is traced wall time" 10. p.Profile.root_total;
  let solve = row p "solve" in
  check_int "solve count" 2 solve.Profile.count;
  checkf "solve total" 8. solve.Profile.total;
  checkf "solve self excludes children" 7. solve.Profile.self_;
  checkf "solve min" 2. solve.Profile.min_total;
  checkf "solve max" 6. solve.Profile.max_total;
  checkf "solve mean" 4. (Profile.mean solve);
  checkf "solve share of root" 0.7 (Profile.share p solve);
  checkf "main self" 2. (row p "main").Profile.self_;
  checkf "presolve self" 1. (row p "presolve").Profile.self_;
  (* rows come sorted by self time, descending *)
  (match p.Profile.rows with
  | a :: b :: _ ->
      check_str "biggest self first" "solve" a.Profile.name;
      check_str "then main" "main" b.Profile.name
  | _ -> Alcotest.fail "expected at least 2 rows");
  (* a truncated (duration-less) root still counts, contributes no time,
     and does not erase its children's profile *)
  let p =
    Profile.of_tree [ node "broken" ~children:[ node "ok" ~dur:3. ] ]
  in
  check_int "truncated span counted" 2 p.Profile.span_count;
  checkf "truncated contributes no time" 0. (row p "broken").Profile.total;
  checkf "children still contribute" 3. (row p "ok").Profile.total;
  checkf "root total zero without root durations" 0. p.Profile.root_total

let test_folded_stacks_golden () =
  let stacks = Profile.folded_stacks (sample_forest ()) in
  checkb "stack lines and weights" true
    (stacks
    = [ ("main", 2.); ("main;solve", 7.); ("main;solve;presolve", 1.) ]);
  let golden =
    "main 2000000\nmain;solve 7000000\nmain;solve;presolve 1000000\n"
  in
  check_str "pp_folded golden (µs weights)" golden
    (Format.asprintf "%a" Profile.pp_folded (sample_forest ()));
  (* zero-self stacks are dropped: a wrapper whose child covers it all *)
  let wrapper = [ node "w" ~dur:5. ~children:[ node "c" ~dur:5. ] ] in
  checkb "zero-weight stack dropped" true
    (Profile.folded_stacks wrapper = [ ("w;c", 5.) ])

(* ------------------------------------------------------------------ *)
(* Convergence                                                         *)

let ev ?(source = "pb") ~kind ~elapsed data =
  { Event.source; kind; elapsed; data }

(* Timeline of events recorded the way the CLI records them: "progress"
   instants of a trace, with the event's fields as attributes. *)
let timeline events =
  let trace, records = Trace.memory () in
  List.iter
    (fun e ->
      match Event.to_json e with
      | Json.Obj attrs -> Trace.instant ~attrs trace "progress"
      | _ -> Alcotest.fail "event JSON is not an object")
    events;
  Convergence.of_events (records ())

let test_convergence_reconstruction () =
  let stream =
    [ ev ~kind:Event.Heartbeat ~elapsed:0.05 []; (* no info: dropped *)
      ev ~kind:Event.Incumbent ~elapsed:0.2
        [ ("incumbent", 20.); ("bound", 10.) ];
      ev ~kind:Event.Bound ~elapsed:0.3 [ ("bound", 15.) ];
      (* elapsed restarts: a second pb solve begins *)
      ev ~kind:Event.Incumbent ~elapsed:0.1 [ ("incumbent", 30.) ];
      (* source changes: a third solve, different backend *)
      ev ~source:"lp-bb" ~kind:Event.Heartbeat ~elapsed:0.2
        [ ("bound", 25.) ];
      ev ~source:"ilp-mr" ~kind:Event.Iteration ~elapsed:0.5
        [ ("iteration", 1.) ] ]
  in
  let t = timeline stream in
  check_int "three solver segments" 3
    (List.length t.Convergence.segments);
  check_int "one outer-loop iteration" 1
    (List.length t.Convergence.iterations);
  let seg i = List.nth t.Convergence.segments i in
  check_str "segment 1 source" "pb" (seg 0).Convergence.source;
  check_int "segment 1 index" 1 (seg 0).Convergence.index;
  (match (seg 0).Convergence.points with
  | [ p1; p2 ] ->
      checkb "incumbent point carries both values" true
        (p1.Convergence.incumbent = Some 20.
        && p1.Convergence.bound = Some 10.);
      (match Convergence.point_gap p1 with
      | Some g -> checkf "gap (20-10)/20" 0.5 g
      | None -> Alcotest.fail "expected a gap");
      checkb "bound point carries incumbent forward" true
        (p2.Convergence.incumbent = Some 20.
        && p2.Convergence.bound = Some 15.)
  | ps -> Alcotest.failf "expected 2 points, got %d" (List.length ps));
  (match Convergence.final_gap (seg 0) with
  | Some g -> checkf "final gap (20-15)/20" 0.25 g
  | None -> Alcotest.fail "expected a final gap");
  (* the elapsed restart forgot the carried values *)
  (match (seg 1).Convergence.points with
  | [ p ] ->
      checkb "restart clears carried bound" true
        (p.Convergence.incumbent = Some 30. && p.Convergence.bound = None)
  | ps -> Alcotest.failf "expected 1 point, got %d" (List.length ps));
  check_str "segment 3 source" "lp-bb" (seg 2).Convergence.source;
  checkb "segment 3 bound-only heartbeat kept" true
    ((List.hd (seg 2).Convergence.points).Convergence.bound = Some 25.)

let test_gap_clamps () =
  checkf "bound above incumbent clamps to 0" 0.
    (Convergence.gap ~incumbent:10. ~bound:12.);
  checkf "zero incumbent uses epsilon denominator" (5. /. 1e-9 *. 1e-9)
    (Convergence.gap ~incumbent:0. ~bound:(-5.) *. 1e-9)

let test_event_json_roundtrip () =
  let original =
    ev ~kind:Event.Bound ~elapsed:1.25
      [ ("bound", 18008.); ("conflicts", 42.) ]
  in
  (match Event.of_json (Event.to_json original) with
  | Some back ->
      checkb "round-trips exactly" true (back = original)
  | None -> Alcotest.fail "of_json rejected to_json output");
  checkb "unknown kind rejected" true
    (Event.of_json
       (Json.Obj
          [ ("source", Json.Str "pb"); ("kind", Json.Str "mystery");
            ("elapsed", Json.Num 1.) ])
    = None)

let test_convergence_edge_cases () =
  (* empty trace: well-formed empty timeline, nothing invented *)
  let t = Convergence.of_events [] in
  check_int "empty trace: no segments" 0
    (List.length t.Convergence.segments);
  check_int "empty trace: no iterations" 0
    (List.length t.Convergence.iterations);
  (* single-event stream whose one event carries no data: the heartbeat
     is dropped and no empty segment is fabricated *)
  let t = timeline [ ev ~kind:Event.Heartbeat ~elapsed:0.1 [] ] in
  check_int "lone empty heartbeat: no segment" 0
    (List.length t.Convergence.segments);
  (* first (and only) event is an incumbent: one segment, one point,
     no bogus bound or gap *)
  let t =
    timeline [ ev ~kind:Event.Incumbent ~elapsed:0.1 [ ("incumbent", 5.) ] ]
  in
  match t.Convergence.segments with
  | [ seg ] -> (
      check_int "lone incumbent: one point" 1
        (List.length seg.Convergence.points);
      let p = List.hd seg.Convergence.points in
      checkb "lone incumbent: value kept" true
        (p.Convergence.incumbent = Some 5.);
      checkb "lone incumbent: no invented bound" true
        (p.Convergence.bound = None);
      checkb "lone incumbent: no gap claimed" true
        (Convergence.point_gap p = None);
      match Convergence.final_gap seg with
      | None -> ()
      | Some g -> Alcotest.failf "bogus final gap %g" g)
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs)

let test_convergence_from_trace () =
  (* progress instants inside a traced span, as written by the CLI *)
  let progress ~ts event =
    Json.Obj
      [ ("ts", Json.Num ts); ("ev", Json.Str "event");
        ("name", Json.Str "progress"); ("depth", Json.Num 1.);
        ("attrs",
         match Event.to_json event with
         | Json.Obj _ as o -> o
         | _ -> assert false) ]
  in
  let records =
    [ Json.Obj
        [ ("ts", Json.Num 100.); ("ev", Json.Str "begin");
          ("name", Json.Str "solve"); ("id", Json.Num 0.);
          ("depth", Json.Num 0.); ("attrs", Json.Obj []) ];
      progress ~ts:100.5
        (ev ~kind:Event.Incumbent ~elapsed:0.5 [ ("incumbent", 42.) ]);
      progress ~ts:100.9
        (ev ~kind:Event.Bound ~elapsed:0.9 [ ("bound", 42.) ]);
      Json.Obj
        [ ("ts", Json.Num 101.); ("ev", Json.Str "end");
          ("name", Json.Str "solve"); ("id", Json.Num 0.);
          ("depth", Json.Num 0.); ("dur", Json.Num 1.) ] ]
  in
  let t = Convergence.of_events records in
  match t.Convergence.segments with
  | [ seg ] -> (
      check_int "both points in one segment" 2
        (List.length seg.Convergence.points);
      let p = List.hd seg.Convergence.points in
      checkf "time axis is seconds since first record" 0.5 p.Convergence.t;
      match Convergence.final_gap seg with
      | Some g -> checkf "closed gap" 0. g
      | None -> Alcotest.fail "expected a final gap")
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs)

(* ------------------------------------------------------------------ *)
(* Bench artifacts and diff                                            *)

let artifact cases = Bench.artifact ~experiment:"test" ~env:[] cases

let test_artifact_roundtrip () =
  let cases =
    [ ("case_a", [ ("wall_s", 0.25); ("iterations", 3.) ]);
      ("case_b", [ ("cost", 13007.) ]) ]
  in
  match Bench.cases_of_artifact (artifact cases) with
  | Ok back -> checkb "cases survive the schema round-trip" true (back = cases)
  | Error e -> Alcotest.fail e

let entry_for entries ~case ~series =
  match
    List.find_opt
      (fun e -> e.Bench.case = case && e.Bench.series = series)
      entries
  with
  | Some e -> e
  | None -> Alcotest.failf "no entry for %s/%s" case series

let diff_exn baseline current =
  match Bench.diff ~baseline ~current () with
  | Ok entries -> entries
  | Error e -> Alcotest.fail e

let test_diff_missing_and_added () =
  let baseline = artifact [ ("c", [ ("a", 1.); ("b", 2.) ]) ] in
  let current = artifact [ ("c", [ ("a", 1.); ("extra", 9.) ]) ] in
  let entries = diff_exn baseline current in
  checkb "dropped series is missing" true
    ((entry_for entries ~case:"c" ~series:"b").Bench.verdict = Bench.Missing);
  checkb "new series is new, not a failure" true
    ((entry_for entries ~case:"c" ~series:"extra").Bench.verdict = Bench.New);
  checkb "new series trips strict mode" true (Bench.has_new entries);
  checkb "missing counts as regression" true (Bench.regression entries);
  (* a whole vanished case regresses too *)
  let entries =
    diff_exn (artifact [ ("gone", [ ("a", 1.) ]) ]) (artifact [])
  in
  checkb "vanished case is missing" true
    ((entry_for entries ~case:"gone" ~series:"a").Bench.verdict
    = Bench.Missing)

let test_diff_zero_baseline () =
  (* zero baselines divide by the kind's floor instead of by zero *)
  let entries =
    diff_exn
      (artifact [ ("c", [ ("wall_s", 0.); ("iterations", 0.) ]) ])
      (artifact [ ("c", [ ("wall_s", 0.005); ("iterations", 2.) ]) ])
  in
  let wall = entry_for entries ~case:"c" ~series:"wall_s" in
  checkb "small absolute time growth tolerated" true
    (wall.Bench.verdict = Bench.Unchanged);
  checkf "time delta uses the 0.02s floor" 0.25
    (Option.get wall.Bench.delta);
  let iters = entry_for entries ~case:"c" ~series:"iterations" in
  checkb "0→2 iterations beyond the floor of 4 at 25%" true
    (iters.Bench.verdict = Bench.Regressed)

let test_diff_tolerance_boundary () =
  let run base cur =
    (entry_for
       (diff_exn
          (artifact [ ("c", [ ("n", base) ]) ])
          (artifact [ ("c", [ ("n", cur) ]) ]))
       ~case:"c" ~series:"n")
      .Bench.verdict
  in
  checkb "exactly at tolerance passes" true (run 100. 125. = Bench.Unchanged);
  checkb "strictly beyond tolerance regresses" true
    (run 100. 126. = Bench.Regressed);
  checkb "improvement beyond tolerance reported" true
    (run 100. 70. = Bench.Improved)

let test_diff_feasible_direction () =
  let run base cur =
    (entry_for
       (diff_exn
          (artifact [ ("c", [ ("feasible", base) ]) ])
          (artifact [ ("c", [ ("feasible", cur) ]) ]))
       ~case:"c" ~series:"feasible")
      .Bench.verdict
  in
  checkb "losing feasibility regresses" true (run 1. 0. = Bench.Regressed);
  checkb "gaining feasibility improves" true (run 0. 1. = Bench.Improved);
  checkb "stable feasibility unchanged" true (run 1. 1. = Bench.Unchanged)

let test_diff_speedup_direction () =
  (* a speedup ratio is a quotient of wall-clock series: judged under the
     loose time tolerance (default 50%), and a DROP is the regression *)
  let run base cur =
    (entry_for
       (diff_exn
          (artifact [ ("c", [ ("wall_speedup_x", base) ]) ])
          (artifact [ ("c", [ ("wall_speedup_x", cur) ]) ]))
       ~case:"c" ~series:"wall_speedup_x")
      .Bench.verdict
  in
  checkb "speedup collapse regresses" true (run 3.6 1.0 = Bench.Regressed);
  checkb "speedup gain improves" true (run 2.0 3.5 = Bench.Improved);
  checkb "wall-clock jitter tolerated" true (run 3.6 3.0 = Bench.Unchanged);
  checkb "gain within tolerance unchanged" true (run 3.6 4.2 = Bench.Unchanged)

let test_time_series_detection () =
  checkb "_s suffix" true (Bench.is_time_series "wall_s");
  checkb "time infix" true (Bench.is_time_series "solver_time_total");
  checkb "seconds infix" true (Bench.is_time_series "seconds_spent");
  checkb "counter is not a time series" false
    (Bench.is_time_series "iterations");
  checkb "cost is not a time series" false (Bench.is_time_series "cost")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [ ( "profile",
        [ Alcotest.test_case "aggregation (self vs total)" `Quick
            test_profile_aggregation;
          Alcotest.test_case "folded stacks golden" `Quick
            test_folded_stacks_golden ] );
      ( "convergence",
        [ Alcotest.test_case "reconstruction + segmentation" `Quick
            test_convergence_reconstruction;
          Alcotest.test_case "gap clamps" `Quick test_gap_clamps;
          Alcotest.test_case "edge cases (empty / single event)" `Quick
            test_convergence_edge_cases;
          Alcotest.test_case "event json round-trip" `Quick
            test_event_json_roundtrip;
          Alcotest.test_case "from trace records" `Quick
            test_convergence_from_trace ] );
      ( "bench-diff",
        [ Alcotest.test_case "artifact round-trip" `Quick
            test_artifact_roundtrip;
          Alcotest.test_case "missing and added series" `Quick
            test_diff_missing_and_added;
          Alcotest.test_case "zero baselines" `Quick
            test_diff_zero_baseline;
          Alcotest.test_case "tolerance boundary" `Quick
            test_diff_tolerance_boundary;
          Alcotest.test_case "feasible direction" `Quick
            test_diff_feasible_direction;
          Alcotest.test_case "speedup direction" `Quick
            test_diff_speedup_direction;
          Alcotest.test_case "time-series detection" `Quick
            test_time_series_detection ] ) ]
