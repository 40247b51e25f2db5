(* ARCHEX's benchmark ledger: one workload per process, one JSON result.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--update]
     main.exe selftest BENCHMARK.json

   A closed loop with one client runs the workload's job list through the
   public synthesis calls, pass after pass, until S seconds have gone by.
   Untraced (--trace 0), it reports the end-to-end metrics.  Traced
   (--trace 1), the same calls get a tracer and a metrics registry, and
   the library's own spans give the per-layer metrics (see Layers).
   Either way every result goes through the correctness oracle (see
   Synth); the last stdout line is {"correct", "attempted", "failed",
   "metrics"}, and the exit code is 1 when any result is wrong.  Run from
   the repository root: it reads ledger/expected/, writes
   ledger/_out/BENCH_ledger_W.json and, traced, ledger/_out/trace_W.ndjson;
   --update rewrites ledger/expected/W-seedN.json and, traced, the
   deterministic counters of ledger/baseline/BENCH_ledger_W.json. *)

module J = Archex_obs.Json
module Clock = Archex_obs.Clock

let usage =
  Printf.sprintf
    "usage: main.exe --workload (%s) [--seed N] [--seconds S] [--trace 0|1] \
     [--update]\n\
    \       main.exe selftest BENCHMARK.json"
    (String.concat "|" Jobs.names)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                          *)

(* Nearest-rank percentile [p] in (0, 1] of a sorted non-empty array. *)
let nearest_rank p sorted =
  let n = Array.length sorted in
  sorted.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* A tail percentile only with at least ten samples above it: with fewer,
   it is the maximum under another name. *)
let tail_percentile p sorted =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n - rank >= 10 then Some (nearest_rank p sorted) else None

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

type prepared = {
  jobs : Jobs.job array;
  templates : (int option * Archlib.Template.t) list;
}

let template p g = List.assoc g p.templates

let attempt ?obs ?on_event p (j : Jobs.job) =
  try Ok (Synth.run ?obs ?on_event (template p j.g) j)
  with e -> Error (Printexc.to_string e)

(* The job list, one template per distinct size, and a warm-up synthesis
   on each template at the family's loosest requirement. *)
let prepare make_jobs =
  let jobs = make_jobs () in
  let gs = List.sort_uniq compare (List.map (fun j -> j.Jobs.g) jobs) in
  let p =
    { jobs = Array.of_list jobs;
      templates = List.map (fun g -> (g, Jobs.template_of g)) gs }
  in
  List.iter
    (fun g ->
      ignore (attempt p { (List.hd jobs) with g; r_star = Jobs.r_hi }))
    gs;
  p

(* Set-ups per untraced run; the median is [setup_s]. *)
let setups = 15

(* ------------------------------------------------------------------ *)
(* The closed loop                                                      *)

(* Run [pass] (given its index) until [seconds] have gone by, at least
   once; whole passes, so every run measures the same job mix. *)
let repeat_for seconds pass =
  let t0 = Clock.now () in
  let rec go n =
    pass n;
    if Clock.now () -. t0 < seconds then go (n + 1) else n + 1
  in
  go 0

type loop = {
  passes : int;
  first : (Synth.outcome, string) result array;  (** each job's first run *)
  latencies : float list array;  (** each job's, one per pass *)
  repeats_differ : int;  (** repeats that gave another answer *)
}

(* [run] on every job of [p], pass after pass, for [seconds]. *)
let loop ~seconds p run =
  let n = Array.length p.jobs in
  let first = Array.make n (Error "not run") and latencies = Array.make n [] in
  let repeats_differ = ref 0 in
  let passes =
    repeat_for seconds (fun pass ->
        Array.iteri
          (fun i j ->
            let s = Clock.now () in
            let o = run j in
            latencies.(i) <- (Clock.now () -. s) :: latencies.(i);
            if pass = 0 then first.(i) <- o
            else if
              Result.map Synth.summary o <> Result.map Synth.summary first.(i)
            then begin
              incr repeats_differ;
              Printf.eprintf "FAIL %s: a repeat gave a different answer\n%!"
                (Jobs.id j)
            end)
          p.jobs)
  in
  { passes; first; latencies; repeats_differ = !repeats_differ }

let dir = "ledger"

(* Per job, every reason its outcome is wrong: the oracle, plus the
   expected answers when there is a file listing exactly these jobs. *)
let verify (w : Jobs.workload) p outcomes =
  let expected =
    Synth.load_expected
      (Filename.concat dir (Printf.sprintf "expected/%s-seed1.json" w.name))
      (Array.to_list p.jobs)
    |> Option.map Array.of_list
  in
  Array.mapi
    (fun i (j : Jobs.job) ->
      Synth.check (template p j.g) j outcomes.(i)
      @
      match expected with
      | Some e -> Synth.against_expected e.(i) outcomes.(i)
      | None -> [])
    p.jobs

(* Syntheses attempted and failed: a job whose first run is wrong fails
   in every pass, and so does every repeat that changed its answer. *)
let tally w p l =
  let errors = verify w p l.first in
  Array.iteri
    (fun i errs ->
      List.iter
        (fun e -> Printf.eprintf "FAIL %s: %s\n%!" (Jobs.id p.jobs.(i)) e)
        errs)
    errors;
  let bad = Array.fold_left (fun n e -> if e = [] then n else n + 1) 0 errors in
  let attempted = l.passes * Array.length p.jobs in
  (attempted, min attempted ((l.passes * bad) + l.repeats_differ))

let value metrics name =
  List.find_map (fun (k, v, _) -> if k = name then Some v else None) metrics
  |> Option.get

type run = {
  summary : string;
  metrics : (string * float * string) list;  (** name, value, unit *)
  series : (string * float) list;  (** the BENCH artifact's series *)
  attempted : int;
  failed : int;
  jobs : Jobs.job array;
  outcomes : (Synth.outcome, string) result array;
  events : J.t list;  (** the traced run's spans *)
}

(* ------------------------------------------------------------------ *)
(* Untraced: the end-to-end metrics                                     *)

let untraced ~seconds w make_jobs =
  (* set up several times, each from a collected heap so that no set-up
     pays for the garbage of the one before; the median is the set-up
     time, and the last set-up is the one measured *)
  let setup () =
    Gc.full_major ();
    let t0 = Clock.now () in
    let p = prepare make_jobs in
    (Clock.now () -. t0, p)
  in
  let times = List.init (setups - 1) (fun _ -> fst (setup ())) in
  let last_s, p = setup () in
  let setup_s = median (last_s :: times) in
  Gc.full_major ();
  let t0 = Clock.now () in
  let l = loop ~seconds p (attempt p) in
  let loop_s = Clock.now () -. t0 in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let attempted, failed = tally w p l in
  let n = Array.length p.jobs in
  let lat = sorted (List.concat (Array.to_list l.latencies)) in
  (* each job at its median over the passes: a burst of load from outside
     the process slows a few samples, not the estimate *)
  let pass_s =
    Array.fold_left (fun acc ts -> acc +. median ts) 0. l.latencies
  in
  let p50 = nearest_rank 0.5 lat in
  let p90 = tail_percentile 0.9 lat in
  { summary =
      Printf.sprintf
        "%s: %d syntheses (%d passes of %d jobs) in %.2fs; p50 %.4fs, p90 %s; \
         set-up %.4fs; failed %d"
        w.Jobs.name attempted l.passes n loop_s p50
        (match p90 with
        | Some v -> Printf.sprintf "%.4fs" v
        | None -> "n/a (n < 100)")
        setup_s failed;
    metrics =
      [ ("setup_s", setup_s, "s");
        ("syntheses_per_s", float_of_int n /. pass_s, "1/s");
        ("solve_p50_s", p50, "s");
        ("peak_heap_mb", heap_mb, "MiB") ];
    series =
      [ ("setup_s", setup_s); ("pass_s", pass_s); ("solve_p50_s", p50) ]
      @ (match p90 with Some v -> [ ("solve_p90_s", v) ] | None -> [])
      @ [ ("peak_heap_mb", heap_mb);
          ("failed_frac", float_of_int failed /. float_of_int attempted) ];
    attempted;
    failed;
    jobs = p.jobs;
    outcomes = l.first;
    events = [] }

(* ------------------------------------------------------------------ *)
(* Traced: the per-layer metrics                                        *)

let traced ~seconds w make_jobs =
  let p = prepare make_jobs in
  let tracer, events = Archex_obs.Trace.memory () in
  let registry = Archex_obs.Metrics.create () in
  let obs = Archex_obs.Ctx.make ~trace:tracer ~metrics:registry () in
  let on_event (e : Archex_obs.Event.t) =
    if e.kind = Archex_obs.Event.Incumbent then
      Archex_obs.Trace.instant tracer "incumbent"
  in
  let gc0 = Gc.quick_stat () in
  let l =
    loop ~seconds p (fun j ->
        Archex_obs.Trace.with_span
          ~attrs:[ ("id", J.Str (Jobs.id j)) ]
          tracer "job"
          (fun () -> attempt ~obs ~on_event p j))
  in
  let gc1 = Gc.quick_stat () in
  let attempted, failed = tally w p l in
  let events = events () in
  let t = Layers.of_events events in
  (* per pass over the job list *)
  let per x = x /. float_of_int l.passes in
  let count n = per (float_of_int n) in
  let counter name =
    Option.value ~default:0. (Archex_obs.Metrics.value registry name)
  in
  let pct layer = 100. *. Layers.seconds t layer /. Float.max t.wall 1e-9 in
  let solve_s = Layers.seconds t "solve" in
  let conflicts = counter "pb.conflicts"
  and propagations = counter "pb.propagations" in
  let tree_nodes =
    Array.fold_left
      (fun acc -> function
        | Ok { Synth.chain = Some (Ok s); _ } ->
            acc + s.Archex_cert.total_tree_nodes
        | _ -> acc)
      0 l.first
  in
  let metrics =
    [ ("trace.wall_s", per t.wall, "s");
      ("trace.unattributed_s", per (t.wall -. Layers.attributed t), "s");
      ( "gen_ilp.encode_s",
        per (Layers.seconds t "encode" +. Layers.seconds t "compile"),
        "s" );
      ("solver.rows", count t.rows, "count");
      ("solver.calls", count (Layers.calls t "solve"), "count");
      ("solver.solve_s", per solve_s, "s");
      ("solver.search_s", per t.search, "s");
      ("solver.proof_s", per t.proof, "s");
      ("pb_solver.decisions", per (counter "pb.decisions"), "count");
      ("pb_solver.propagations", per propagations, "count");
      ("pb_solver.conflicts", per conflicts, "count");
      ("pb_solver.conflicts_per_s", conflicts /. solve_s, "1/s");
      ("pb_solver.propagations_per_s", propagations /. solve_s, "1/s");
      ( "gc.minor_words_per_conflict",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. Float.max conflicts 1.,
        "words" );
      ( "gc.major_collections",
        count (gc1.Gc.major_collections - gc0.Gc.major_collections),
        "count" );
      ("rel_analysis.s", per (Layers.seconds t "reliability"), "s");
      ("rel_analysis.calls", count (Layers.calls t "reliability"), "count");
      ("learn_cons.calls", count (Layers.calls t "learn"), "count");
      ( "learn_cons.new_constraints",
        per (counter "mr.constraints_learned"),
        "count" );
      ("learn_cons.wall_pct", pct "learn", "%");
      ("archex_cert.certify_pct", pct "certify", "%");
      ("archex_cert.check_pct", pct "check", "%");
      ("archex_cert.tree_nodes", float_of_int tree_nodes, "count");
      ("ilp_mr.iterations", count (Layers.calls t "iteration"), "count") ]
  in
  { summary =
      Printf.sprintf
        "%s traced: %d passes of %d jobs; %.4fs per pass, %.4fs unattributed"
        w.Jobs.name l.passes (Array.length p.jobs)
        (value metrics "trace.wall_s")
        (value metrics "trace.unattributed_s");
    metrics;
    (* rates stay out: bench-diff reads every "_s" series as lower-is-better *)
    series =
      List.filter_map
        (fun (k, v, unit) -> if unit = "1/s" then None else Some (k, v))
        metrics;
    attempted;
    failed;
    jobs = p.jobs;
    outcomes = l.first;
    events }

(* The counters that repeat bit for bit, which bench-diff can gate. *)
let deterministic =
  [ "solver.rows"; "solver.calls";
    "pb_solver.decisions"; "pb_solver.propagations"; "pb_solver.conflicts";
    "rel_analysis.calls"; "learn_cons.calls"; "learn_cons.new_constraints";
    "archex_cert.tree_nodes"; "ilp_mr.iterations" ]

let result_json r =
  J.Obj
    [ ("correct", J.Bool (r.failed = 0));
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
             r.metrics) ) ]

let write path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let bench (w : Jobs.workload) series =
  Archex_obs.Bench_compare.artifact ~experiment:"ledger" [ (w.name, series) ]

(* ------------------------------------------------------------------ *)
(* Self-test (dune runtest)                                             *)

(* Three jobs per workload, one pass each way: tracing leaves every answer
   as it was, the layer spans cover 95% of the traced wall, the result
   line parses back, and every metric BENCHMARK.json names is reported
   with its unit. *)
let selftest path =
  let declared =
    match J.of_string (Synth.read_file path) with
    | Error e -> failwith (path ^ ": " ^ e)
    | Ok doc ->
        List.concat_map
          (fun key ->
            match J.mem key doc with
            | Some (J.Arr ms) ->
                List.map
                  (fun m ->
                    ( Option.bind (J.mem "name" m) J.to_str,
                      Option.bind (J.mem "unit" m) J.to_str ))
                  ms
            | _ -> failwith (path ^ ": no " ^ key))
          [ "end_to_end"; "per_layer" ]
  in
  let problems = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr problems;
        prerr_endline ("selftest: " ^ s))
      fmt
  in
  List.iter
    (fun (w : Jobs.workload) ->
      let make () = w.smoke in
      let plain = untraced ~seconds:0. w make in
      let trace = traced ~seconds:0. w make in
      List.iter
        (fun r ->
          if r.failed > 0 then fail "%s: %d failed" w.name r.failed;
          let line = J.to_string (result_json r) in
          match J.of_string line with
          | Ok v when J.equal v (result_json r) -> ()
          | _ -> fail "%s: result line does not parse back" w.name)
        [ plain; trace ];
      let answers r = Array.map (Result.map Synth.summary) r.outcomes in
      if answers plain <> answers trace then
        fail "%s: tracing changed an answer" w.name;
      let reported =
        List.map
          (fun (k, _, unit) -> (Some k, Some unit))
          (plain.metrics @ trace.metrics)
      in
      List.iter
        (fun ((name, _) as m) ->
          if not (List.mem m reported) then
            fail "%s: %s missing or in another unit" w.name
              (Option.value name ~default:"a nameless metric"))
        declared;
      let wall = value trace.metrics "trace.wall_s"
      and unattributed = value trace.metrics "trace.unattributed_s" in
      if unattributed > 0.05 *. wall then
        fail "%s: layer spans cover %.1f%% of the traced wall" w.name
          (100. *. (1. -. (unattributed /. wall))))
    Jobs.all;
  if !problems > 0 then exit 1

(* ------------------------------------------------------------------ *)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let die fmt =
    Printf.ksprintf (fun s -> prerr_endline s; prerr_endline usage; exit 2) fmt
  in
  let number what conv s =
    match conv s with Some v -> v | None -> die "%s: not a number: %S" what s
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest"; path ] -> selftest path
  | args ->
      let workload = ref None and seed = ref 1 and seconds = ref 20.
      and trace = ref false and update = ref false in
      let rec parse = function
        | [] -> ()
        | "--workload" :: name :: rest ->
            (match Jobs.find name with
            | Some w -> workload := Some w
            | None -> die "unknown workload %S" name);
            parse rest
        | "--seed" :: s :: rest ->
            seed := number "--seed" int_of_string_opt s;
            parse rest
        | "--seconds" :: s :: rest ->
            seconds := number "--seconds" float_of_string_opt s;
            if not (Float.is_finite !seconds && !seconds >= 0.) then
              die "--seconds: expected a duration, got %S" s;
            parse rest
        | "--trace" :: ("0" | "1" as t) :: rest ->
            trace := t = "1";
            parse rest
        | "--trace" :: t :: _ -> die "--trace: expected 0 or 1, got %S" t
        | "--update" :: rest ->
            update := true;
            parse rest
        | arg :: _ -> die "unexpected argument %S" arg
      in
      parse args;
      let w =
        match !workload with Some w -> w | None -> die "--workload is required"
      in
      let seed = !seed and seconds = !seconds in
      let make () = w.jobs seed in
      let r =
        if !trace then traced ~seconds w make else untraced ~seconds w make
      in
      let out = Filename.concat dir "_out" in
      mkdir_p out;
      Archex_obs.Bench_compare.write_file (bench w r.series)
        (Filename.concat out (Printf.sprintf "BENCH_ledger_%s.json" w.name));
      if !trace then
        write
          (Filename.concat out (Printf.sprintf "trace_%s.ndjson" w.name))
          (String.concat ""
             (List.map (fun e -> J.to_string e ^ "\n") r.events));
      if !update then begin
        write
          (Filename.concat dir
             (Printf.sprintf "expected/%s-seed%d.json" w.name seed))
          (Synth.expected_json ~workload:w.name ~seed
             (Array.to_list r.jobs)
             (Array.to_list r.outcomes));
        if !trace then
          Archex_obs.Bench_compare.write_file
            (bench w
               (List.filter (fun (k, _) -> List.mem k deterministic) r.series))
            (Filename.concat dir
               (Printf.sprintf "baseline/BENCH_ledger_%s.json" w.name))
      end;
      prerr_endline r.summary;
      print_endline (J.to_string (result_json r));
      if r.failed > 0 then exit 1
