(* Tests for the observability layer: JSON round-trips, span
   nesting/reconstruction, metric semantics, and agreement between the
   counters emitted by an instrumented solver run and the stats it
   returns. *)

module Json = Archex_obs.Json
module Clock = Archex_obs.Clock
module Metrics = Archex_obs.Metrics
module Trace = Archex_obs.Trace
module Ctx = Archex_obs.Ctx
module Model = Milp.Model
module Lin_expr = Milp.Lin_expr

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let samples =
    [ Json.Null;
      Json.Bool true;
      Json.Num 0.;
      Json.Num (-3.25);
      Json.Num 1e-37;
      Json.Num 123456789.;
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \x01";
      Json.Arr [ Json.Num 1.; Json.Str "two"; Json.Null ];
      Json.Obj
        [ ("a", Json.Num 1.5);
          ("nested", Json.Obj [ ("b", Json.Arr [ Json.Bool false ]) ]) ] ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      checkb ("single line: " ^ s) false (String.contains s '\n');
      match Json.of_string s with
      | Ok v' -> checkb ("round-trip: " ^ s) true (Json.equal v v')
      | Error e -> Alcotest.failf "parse %s: %s" s e)
    samples

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "1 2";
  bad "nul"

let test_ndjson () =
  let lines = "{\"a\":1}\n\n{\"b\":[true,null]}\n" in
  match Json.parse_lines lines with
  | Ok [ a; b ] ->
      checkb "first" true
        (Json.equal a (Json.Obj [ ("a", Json.Num 1.) ]));
      checkb "second" true
        (Json.equal b
           (Json.Obj [ ("b", Json.Arr [ Json.Bool true; Json.Null ]) ]))
  | Ok vs -> Alcotest.failf "expected 2 values, got %d" (List.length vs)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock_monotone () =
  let a = Clock.now () in
  let b = Clock.now () in
  let c = Clock.now () in
  checkb "non-decreasing" true (a <= b && b <= c);
  checkb "elapsed non-negative" true (Clock.elapsed a >= 0.)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_span_nesting_roundtrip () =
  let t, events = Trace.memory () in
  let result =
    Trace.with_span ~attrs:[ ("root", Json.Bool true) ] t "outer" (fun () ->
        Trace.with_span t "inner" (fun () -> ());
        Trace.instant ~attrs:[ ("mark", Json.Num 7.) ] t "tick";
        Trace.with_span t "inner2" (fun () -> 42))
  in
  check_int "with_span returns the thunk's value" 42 result;
  let evs = events () in
  (* outer begin/end, inner begin/end, tick, inner2 begin/end *)
  check_int "event count" 7 (List.length evs);
  (* NDJSON round-trip of the whole stream *)
  let ndjson =
    String.concat "\n" (List.map Json.to_string evs) ^ "\n"
  in
  let reparsed =
    match Json.parse_lines ndjson with
    | Ok vs -> vs
    | Error e -> Alcotest.fail e
  in
  checkb "stream round-trips" true (List.for_all2 Json.equal evs reparsed);
  (* tree reconstruction from the re-parsed stream *)
  match Trace.tree_of_events reparsed with
  | [ root ] ->
      check_str "root name" "outer" root.Trace.name;
      checkb "root has duration" true (root.Trace.dur <> None);
      checkb "root attrs kept" true
        (List.mem_assoc "root" root.Trace.attrs);
      check_int "children" 3 (List.length root.Trace.children);
      let names =
        List.map (fun c -> c.Trace.name) root.Trace.children
      in
      checkb "child order" true (names = [ "inner"; "tick"; "inner2" ]);
      let tick = List.nth root.Trace.children 1 in
      checkb "instant has no duration" true (tick.Trace.dur = None)
  | forest -> Alcotest.failf "expected 1 root, got %d" (List.length forest)

(* Hand-built raw trace records, for truncation and validation tests. *)
let ev_begin ?id ~ts ~depth name =
  Json.Obj
    ([ ("ts", Json.Num ts); ("ev", Json.Str "begin");
       ("name", Json.Str name) ]
    @ (match id with Some i -> [ ("id", Json.Num i) ] | None -> [])
    @ [ ("depth", Json.Num depth); ("attrs", Json.Obj []) ])

let ev_end ?id ~ts ~depth ~dur name =
  Json.Obj
    ([ ("ts", Json.Num ts); ("ev", Json.Str "end");
       ("name", Json.Str name) ]
    @ (match id with Some i -> [ ("id", Json.Num i) ] | None -> [])
    @ [ ("depth", Json.Num depth); ("dur", Json.Num dur) ])

let test_truncated_tail () =
  (* the trace stops mid-flight: both spans are still open *)
  let events =
    [ ev_begin ~id:0. ~ts:1. ~depth:0. "outer";
      ev_begin ~id:1. ~ts:2. ~depth:1. "inner" ]
  in
  match Trace.tree_of_events events with
  | [ root ] ->
      check_str "root name" "outer" root.Trace.name;
      checkb "unfinished root has no duration" true (root.Trace.dur = None);
      (match root.Trace.children with
      | [ child ] ->
          check_str "child name" "inner" child.Trace.name;
          checkb "unfinished child has no duration" true
            (child.Trace.dur = None)
      | cs -> Alcotest.failf "expected 1 child, got %d" (List.length cs))
  | forest -> Alcotest.failf "expected 1 root, got %d" (List.length forest)

let test_lost_inner_end () =
  (* inner's end line was lost; outer's end must still close outer (matched
     by id), not steal inner's frame and report a bogus duration *)
  let events =
    [ ev_begin ~id:0. ~ts:1. ~depth:0. "outer";
      ev_begin ~id:1. ~ts:2. ~depth:1. "inner";
      ev_end ~id:0. ~ts:5. ~depth:0. ~dur:4. "outer" ]
  in
  (match Trace.tree_of_events events with
  | [ root ] ->
      check_str "root name" "outer" root.Trace.name;
      checkb "outer keeps its reported duration" true
        (root.Trace.dur = Some 4.);
      (match root.Trace.children with
      | [ child ] ->
          check_str "child name" "inner" child.Trace.name;
          checkb "lost-end child degrades to no duration" true
            (child.Trace.dur = None)
      | cs -> Alcotest.failf "expected 1 child, got %d" (List.length cs))
  | forest -> Alcotest.failf "expected 1 root, got %d" (List.length forest));
  (* an end whose begin predates the capture window is dropped *)
  let headless =
    [ ev_end ~id:9. ~ts:1. ~depth:0. ~dur:1. "ghost";
      ev_begin ~id:0. ~ts:2. ~depth:0. "real";
      ev_end ~id:0. ~ts:3. ~depth:0. ~dur:1. "real" ]
  in
  match Trace.tree_of_events headless with
  | [ root ] -> check_str "ghost end dropped" "real" root.Trace.name
  | forest -> Alcotest.failf "expected 1 root, got %d" (List.length forest)

let test_validate_clean_stream () =
  let t, events = Trace.memory () in
  Trace.with_span t "outer" (fun () ->
      Trace.with_span t "inner" (fun () -> ());
      Trace.instant t "tick");
  let numbered = List.mapi (fun i j -> (i + 1, j)) (events ()) in
  checkb "live stream validates clean" true (Trace.validate numbered = [])

let test_validate_errors () =
  let find line errors =
    List.filter_map (fun (l, m) -> if l = line then Some m else None) errors
  in
  let contains sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (* backwards timestamp *)
  let errs =
    Trace.validate
      [ (1, ev_begin ~id:0. ~ts:5. ~depth:0. "a");
        (2, ev_end ~id:0. ~ts:4. ~depth:0. ~dur:1. "a") ]
  in
  checkb "backwards ts flagged on line 2" true
    (List.exists (contains "backwards") (find 2 errs));
  (* depth inconsistent with nesting *)
  let errs =
    Trace.validate
      [ (1, ev_begin ~id:0. ~ts:1. ~depth:0. "a");
        (2, ev_begin ~id:1. ~ts:2. ~depth:3. "b");
        (3, ev_end ~id:1. ~ts:3. ~depth:1. ~dur:1. "b");
        (4, ev_end ~id:0. ~ts:4. ~depth:0. ~dur:3. "a") ]
  in
  checkb "bad depth flagged on line 2" true
    (List.exists (contains "depth") (find 2 errs));
  checkb "good lines stay clean" true (find 3 errs = [] && find 4 errs = []);
  (* end without begin *)
  let errs =
    Trace.validate [ (1, ev_end ~id:0. ~ts:1. ~depth:0. ~dur:1. "a") ]
  in
  checkb "stray end flagged" true
    (List.exists (contains "without a matching begin") (find 1 errs));
  (* span left open at end of stream *)
  let errs = Trace.validate [ (7, ev_begin ~id:0. ~ts:1. ~depth:0. "a") ] in
  checkb "open span at EOF flagged" true
    (List.exists (contains "still open") (find 7 errs));
  (* unknown event kind *)
  let errs =
    Trace.validate
      [ (1, Json.Obj [ ("ts", Json.Num 1.); ("ev", Json.Str "wat") ]) ]
  in
  checkb "unknown kind flagged" true
    (List.exists (contains "unknown event kind") (find 1 errs))

let test_parse_lines_numbered () =
  match Json.parse_lines_numbered "{\"a\":1}\n\n{\"b\":2}\n" with
  | Ok [ (1, _); (3, b) ] ->
      checkb "blank lines counted but skipped" true
        (Json.equal b (Json.Obj [ ("b", Json.Num 2.) ]))
  | Ok l -> Alcotest.failf "expected lines 1 and 3, got %d entries"
              (List.length l)
  | Error e -> Alcotest.fail e

let test_span_end_on_raise () =
  let t, events = Trace.memory () in
  (try
     Trace.with_span t "doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  let evs = events () in
  check_int "begin and end both emitted" 2 (List.length evs);
  let last = List.nth evs 1 in
  checkb "last is an end event" true
    (Json.mem "ev" last = Some (Json.Str "end"))

let test_null_trace_is_transparent () =
  checkb "null disabled" false (Trace.enabled Trace.null);
  check_int "with_span is the identity on null" 9
    (Trace.with_span Trace.null "x" (fun () -> 9))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "pb.conflicts" in
  Metrics.incr c;
  Metrics.add c 4.;
  checkf "counter" 5. (Metrics.counter_value c);
  checkb "same handle" true (Metrics.counter m "pb.conflicts" == c);
  let g = Metrics.gauge m "mr.estpath_k" in
  Metrics.set g 3.;
  Metrics.set g 2.;
  checkf "gauge keeps last" 2. (Metrics.gauge_value g);
  checkb "value lookup" true (Metrics.value m "pb.conflicts" = Some 5.);
  checkb "absent lookup" true (Metrics.value m "nope" = None);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"pb.conflicts\" is already a counter")
    (fun () -> ignore (Metrics.gauge m "pb.conflicts"))

let test_histogram_bucketing () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "solve.seconds" in
  (* 0.75 and 1.0 share bucket (0.5, 1]; 1.5 lands in (1, 2] *)
  Metrics.observe h 0.75;
  Metrics.observe h 1.0;
  Metrics.observe h 1.5;
  check_int "count" 3 (Metrics.histogram_count h);
  checkf "sum" 3.25 (Metrics.histogram_sum h);
  (match Metrics.bucket_counts h with
  | [ (b1, n1); (b2, n2) ] ->
      checkf "first bound" 1. b1;
      check_int "first count" 2 n1;
      checkf "second bound" 2. b2;
      check_int "second count" 1 n2
  | bs -> Alcotest.failf "expected 2 buckets, got %d" (List.length bs));
  (* extremes clamp instead of vanishing *)
  Metrics.observe h 0.;
  Metrics.observe h 1e300;
  check_int "clamped count" 5 (Metrics.histogram_count h);
  checkf "bucket_bound is a power of two" 2. (Metrics.bucket_bound 41)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "q" in
  checkb "empty histogram has no quantiles" true
    (Metrics.quantile h 0.5 = None);
  (* three observations in (0.5,1], one in (2,4] *)
  Metrics.observe h 1.0;
  Metrics.observe h 1.0;
  Metrics.observe h 1.0;
  Metrics.observe h 4.0;
  (* rank 2 of 4 lands in the first bucket; interpolation would say
     0.83 but the estimate clamps to the observed minimum *)
  (match Metrics.quantile h 0.5 with
  | Some v -> checkf "p50 clamps to observed min" 1.0 v
  | None -> Alcotest.fail "p50 missing");
  (* rank 3.96 lands in the (2,4] bucket: 2 + 0.96·2 = 3.92 *)
  (match Metrics.quantile h 0.99 with
  | Some v -> checkf "p99 interpolates inside its bucket" 3.92 v
  | None -> Alcotest.fail "p99 missing");
  (match Metrics.quantile h 1.5 with
  | Some v -> checkf "q clamps to [0,1]" 4.0 v
  | None -> Alcotest.fail "q=1.5 missing");
  (* snapshot carries the estimates *)
  match Metrics.to_json m with
  | Json.Obj [ ("q", Json.Obj fields) ] ->
      checkb "p50 in snapshot" true
        (List.assoc_opt "p50" fields = Some (Json.Num 1.0));
      checkb "p99 in snapshot" true
        (match List.assoc_opt "p99" fields with
        | Some (Json.Num v) -> Float.abs (v -. 3.92) < 1e-9
        | _ -> false)
  | j -> Alcotest.failf "unexpected snapshot %s" (Json.to_string j)

(* A histogram with one sample must report that sample as every
   quantile, and non-finite observations must be dropped rather than
   poisoning sum/min/max (one NaN would otherwise turn every later
   snapshot field into NaN/±inf). *)
let test_histogram_degenerate_samples () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "one" in
  Metrics.observe h 0.75;
  List.iter
    (fun q ->
      match Metrics.quantile h q with
      | Some v -> checkf (Printf.sprintf "p%g is the sample" q) 0.75 v
      | None -> Alcotest.failf "quantile %g missing on 1 sample" q)
    [ 0.5; 0.9; 0.99 ];
  (* non-finite observations are dropped entirely *)
  Metrics.observe h Float.nan;
  Metrics.observe h Float.infinity;
  Metrics.observe h Float.neg_infinity;
  check_int "non-finite not counted" 1 (Metrics.histogram_count h);
  checkf "sum stays finite" 0.75 (Metrics.histogram_sum h);
  (match Metrics.quantile h 0.99 with
  | Some v -> checkf "quantile unaffected" 0.75 v
  | None -> Alcotest.fail "quantile lost after non-finite observe");
  (* the snapshot serializes to valid JSON with finite numbers *)
  match Json.of_string (Json.to_string (Metrics.to_json m)) with
  | Error e -> Alcotest.failf "snapshot does not re-parse: %s" e
  | Ok j -> (
      match Json.mem "one" j with
      | Some hist ->
          List.iter
            (fun field ->
              match Json.mem field hist with
              | Some (Json.Num v) ->
                  checkb
                    (Printf.sprintf "%s is finite" field)
                    true (Float.is_finite v)
              | other ->
                  Alcotest.failf "%s missing or non-numeric (%s)" field
                    (match other with
                    | Some o -> Json.to_string o
                    | None -> "absent"))
            [ "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99" ]
      | None -> Alcotest.fail "histogram missing from snapshot")

(* An empty histogram's snapshot is well-defined too: count 0, null
   min/max/quantiles — never an exception or NaN. *)
let test_histogram_empty_snapshot () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "empty" in
  ignore h;
  match Json.of_string (Json.to_string (Metrics.to_json m)) with
  | Error e -> Alcotest.failf "empty snapshot does not re-parse: %s" e
  | Ok j -> (
      match Json.mem "empty" j with
      | Some hist ->
          checkb "count 0" true (Json.mem "count" hist = Some (Json.Num 0.));
          List.iter
            (fun field ->
              checkb
                (Printf.sprintf "%s is null" field)
                true
                (Json.mem field hist = Some Json.Null))
            [ "min"; "max"; "p50"; "p90"; "p99" ]
      | None -> Alcotest.fail "histogram missing from snapshot")

let test_null_metrics () =
  let m = Metrics.null in
  checkb "disabled" false (Metrics.enabled m);
  let c = Metrics.counter m "anything" in
  Metrics.incr c;
  Metrics.add c 100.;
  let h = Metrics.histogram m "h" in
  Metrics.observe h 1.;
  checkb "null value lookup" true (Metrics.value m "anything" = None);
  checkb "null snapshot empty" true
    (Json.equal (Metrics.to_json m) (Json.Obj []))

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "b.two") 2.;
  Metrics.add (Metrics.counter m "a.one") 1.;
  match Metrics.to_json m with
  | Json.Obj [ ("a.one", Json.Num 1.); ("b.two", Json.Num 2.) ] -> ()
  | j -> Alcotest.failf "unexpected snapshot %s" (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Instrumented solver run: counters = returned stats                  *)

(* A small pure-Boolean covering problem with a non-trivial search:
   minimize Σ cost·xᵢ subject to pairwise coverage rows. *)
let covering_model () =
  let m = Model.create () in
  let xs = Array.init 8 (fun i -> Model.bool_var ~name:(Printf.sprintf "x%d" i) m) in
  for i = 0 to 6 do
    Model.add_constraint m
      (Lin_expr.add (Lin_expr.var xs.(i)) (Lin_expr.var xs.(i + 1)))
      Model.Ge 1.
  done;
  Model.set_objective m
    (Lin_expr.of_terms
       (Array.to_list (Array.mapi (fun i x -> (x, float_of_int (1 + (i mod 3)))) xs)));
  m

let test_pb_metrics_match_stats () =
  let metrics = Metrics.create () in
  let events = ref 0 in
  let outcome, stats =
    Milp.Pb_solver.solve ~metrics ~on_event:(fun _ -> incr events)
      (covering_model ())
  in
  (match outcome with
  | Milp.Pb_solver.Optimal _ -> ()
  | _ -> Alcotest.fail "expected an optimal outcome");
  let v name = Option.value (Metrics.value metrics name) ~default:(-1.) in
  checkf "pb.decisions" (float_of_int stats.Milp.Pb_solver.decisions)
    (v "pb.decisions");
  checkf "pb.propagations" (float_of_int stats.Milp.Pb_solver.propagations)
    (v "pb.propagations");
  checkf "pb.conflicts" (float_of_int stats.Milp.Pb_solver.conflicts)
    (v "pb.conflicts");
  checkf "pb.restarts" (float_of_int stats.Milp.Pb_solver.restarts)
    (v "pb.restarts");
  checkf "pb.learned" (float_of_int stats.Milp.Pb_solver.learned)
    (v "pb.learned")

let v_pos metrics name =
  match Metrics.value metrics name with Some v -> v > 0. | None -> false

let test_solver_trace_shape () =
  let tracer, events = Trace.memory () in
  let metrics = Metrics.create () in
  let obs = Ctx.make ~trace:tracer ~metrics () in
  let outcome, _ = Milp.Solver.solve ~obs (covering_model ()) in
  (match outcome with
  | Milp.Solver.Optimal { objective; _ } ->
      checkb "positive cost" true (objective > 0.)
  | _ -> Alcotest.fail "expected optimal");
  (match Trace.tree_of_events (events ()) with
  | [ root ] -> check_str "root span" "solve" root.Trace.name
  | forest -> Alcotest.failf "expected 1 root, got %d" (List.length forest));
  checkb "solve.calls counted" true
    (Metrics.value metrics "solve.calls" = Some 1.);
  checkb "pb decisions counted" true (v_pos metrics "pb.decisions")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors rejected" `Quick test_json_errors;
          Alcotest.test_case "ndjson lines" `Quick test_ndjson;
          Alcotest.test_case "numbered ndjson lines" `Quick
            test_parse_lines_numbered ] );
      ( "clock",
        [ Alcotest.test_case "monotone" `Quick test_clock_monotone ] );
      ( "trace",
        [ Alcotest.test_case "nesting + round-trip" `Quick
            test_span_nesting_roundtrip;
          Alcotest.test_case "end emitted on raise" `Quick
            test_span_end_on_raise;
          Alcotest.test_case "null transparent" `Quick
            test_null_trace_is_transparent;
          Alcotest.test_case "truncated tail degrades" `Quick
            test_truncated_tail;
          Alcotest.test_case "lost inner end" `Quick test_lost_inner_end;
          Alcotest.test_case "validate clean stream" `Quick
            test_validate_clean_stream;
          Alcotest.test_case "validate flags errors" `Quick
            test_validate_errors ] );
      ( "metrics",
        [ Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "histogram bucketing" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "degenerate samples" `Quick
            test_histogram_degenerate_samples;
          Alcotest.test_case "empty snapshot" `Quick
            test_histogram_empty_snapshot;
          Alcotest.test_case "null registry" `Quick test_null_metrics;
          Alcotest.test_case "json snapshot" `Quick test_metrics_json ] );
      ( "solver",
        [ Alcotest.test_case "pb counters = stats" `Quick
            test_pb_metrics_match_stats;
          Alcotest.test_case "solve span shape" `Quick
            test_solver_trace_shape ] ) ]
