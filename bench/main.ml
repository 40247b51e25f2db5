(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section, plus ablation benches and Bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe                      # every paper artifact
     dune exec bench/main.exe -- fig2 table3       # selected artifacts
     dune exec bench/main.exe -- --sizes 4,6,8     # scaling sweep sizes
     dune exec bench/main.exe -- bechamel          # micro-benchmarks

   Absolute times differ from the paper (different machine, from-scratch
   solver instead of CPLEX); EXPERIMENTS.md tracks the qualitative shape. *)

let sizes = ref [ 4; 6; 8 ]
let per_solve_limit = ref 120.

(* Nearest-rank percentile [p] in (0, 1] of sorted samples: the value at
   rank ⌈p·n⌉.  A tail percentile (above the median, short of the maximum)
   is reported only with at least ten samples above it; with fewer it
   would be the maximum under another name. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  if n = 0 || (p > 0.5 && p < 1. && n - rank < 10) then None
  else Some sorted.(rank - 1)

let hr title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)

let table1 () =
  hr "Table I: EPS components and attributes";
  Printf.printf "%-12s %-8s | %-6s %-8s | %-12s %s\n" "Generators" "g (kW)"
    "Loads" "l (kW)" "Components" "cost";
  let gens = Eps.Eps_library.generator_names
  and ratings = Eps.Eps_library.generator_ratings
  and loads = Eps.Eps_library.load_names
  and demands = Eps.Eps_library.load_demands in
  let comp_rows =
    [ ("Generator", "g/10"); ("Bus", "2000"); ("Rectifier", "2000");
      ("Contactor", "1000") ]
  in
  for i = 0 to 4 do
    let gen = Printf.sprintf "%-12s %-8g" gens.(i) ratings.(i) in
    let load =
      if i < 4 then Printf.sprintf "%-6s %-8g" loads.(i) demands.(i)
      else Printf.sprintf "%-6s %-8s" "" ""
    in
    let comp =
      if i < 4 then
        let name, cost = List.nth comp_rows i in
        Printf.sprintf "%-12s %s" name cost
      else ""
    in
    Printf.printf "%s | %s | %s\n" gen load comp
  done;
  Printf.printf "failure probability (GEN, ACB, TRU): %g\n"
    Eps.Eps_library.component_fail_prob

(* ------------------------------------------------------------------ *)
(* Example 1                                                           *)

let example1 () =
  hr "Example 1: approximate algebra vs exact computation (Fig. 1b)";
  let g =
    Netgraph.Digraph.of_edges 7
      [ (0, 2); (2, 4); (4, 6); (1, 3); (3, 5); (5, 6) ]
  in
  let part =
    Netgraph.Partition.make ~names:[| "G"; "B"; "D"; "L" |]
      [| 0; 0; 1; 1; 2; 2; 3 |]
  in
  let p = 2e-4 in
  let net =
    Reliability.Fail_model.make g ~sources:[ 0; 1 ]
      ~node_fail:(Array.make 7 p)
  in
  let exact = Reliability.Exact.sink_failure net ~sink:6 in
  let link =
    Reliability.Approx.functional_link g part ~sources:[ 0; 1 ] ~sink:6
  in
  let approx =
    Reliability.Approx.failure_estimate part ~type_fail:(fun _ -> p) link
  in
  Printf.printf "r~_L = p + 6p^2             = %.8e\n" approx;
  Printf.printf "r_L  (exact, p + 9p^2 + ..) = %.8e\n" exact;
  Printf.printf "paper closed forms:  r~ = %.8e   r = %.8e\n"
    (p +. (6. *. p *. p))
    (p +. ((1. -. p)
           *. ((p +. ((1. -. p) *. (p +. ((1. -. p) *. p)))) ** 2.)));
  Printf.printf "Theorem 2 bound m·f/M_f = %.3f;  actual r~/r = %.4f\n"
    (Reliability.Approx.theorem2_bound part link)
    (approx /. exact)

(* Solves that stopped at --limit without proving their optimum.  An
   ILP-MR iteration is proven when its best bound closed onto its cost;
   Ilp_ar.run keeps no run_stats, so a solve that used its whole limit
   is the limit-hit signal. *)
let mr_unproven it =
  it.Archex.Ilp_mr.stats.Milp.Solver.best_bound <> Some it.Archex.Ilp_mr.cost

let ar_unproven timing =
  timing.Archex.Synthesis.solver_time >= !per_solve_limit

(* Row suffix from one unproven flag per solve; empty when none is set. *)
let unproven_note flags =
  match (List.length (List.filter Fun.id flags), List.length flags) with
  | 0, _ -> ""
  | n, solves ->
      Printf.sprintf "  [%s stopped at the %gs limit, unproven]"
        (if solves = 1 then "solve"
         else Printf.sprintf "%d of %d solves" n solves)
        !per_solve_limit

(* ------------------------------------------------------------------ *)
(* Fig. 2: ILP-MR iterations                                           *)

let fig2 () =
  hr "Fig. 2: ILP-MR iterations on the base EPS template (r* = 2e-10)";
  let inst = Eps.Eps_template.base () in
  let template = inst.Eps.Eps_template.template in
  match
    Archex.Ilp_mr.run ~solve_time_limit:!per_solve_limit template
      ~r_star:2e-10
  with
  | Archex.Synthesis.Synthesized (arch, trace, timing) ->
      List.iter
        (fun it ->
          Printf.printf
            "  (%c) iteration %d: cost %-7g r = %.3e%s%s\n"
            (Char.chr (Char.code 'a' + it.Archex.Ilp_mr.index - 1))
            it.Archex.Ilp_mr.index it.Archex.Ilp_mr.cost
            it.Archex.Ilp_mr.reliability
            (match it.Archex.Ilp_mr.k_estimate with
            | Some k -> Printf.sprintf "  [ESTPATH k = %d]" k
            | None -> "")
            (unproven_note [ mr_unproven it ]))
        trace;
      Printf.printf
        "  paper: (a) r = 6e-4  (b) r = 2.8e-10  (c) r = 0.79e-10\n";
      Printf.printf "  final cost %g, r = %.3e; solver %.1fs analysis %.1fs\n"
        arch.Archex.Synthesis.cost arch.Archex.Synthesis.reliability
        timing.Archex.Synthesis.solver_time
        timing.Archex.Synthesis.analysis_time;
      print_string (Eps.Eps_diagram.render inst arch.Archex.Synthesis.config);
      let net =
        Archex.Rel_analysis.fail_model_of_config template
          arch.Archex.Synthesis.config
      in
      let width =
        List.fold_left
          (fun acc sink ->
            min acc (Reliability.Cut_sets.min_cut_width net ~sink))
          max_int
          (Archlib.Template.sinks template)
      in
      Printf.printf
        "  redundancy order (simultaneous failures to lose a load): %d\n"
        width
  | Archex.Synthesis.Unfeasible _ -> print_endline "  UNFEASIBLE"

(* ------------------------------------------------------------------ *)
(* Fig. 3: ILP-AR at three requirements                                *)

let fig3 () =
  hr "Fig. 3: ILP-AR architectures for decreasing r* (base EPS template)";
  let paper =
    [ (2e-3, "r~ = 6.0e-4,  r = 6e-4");
      (2e-6, "r~ = 2.4e-7,  r = 3.5e-7");
      (2e-10, "r~ = 7.2e-11, r = 2.8e-10") ]
  in
  List.iter
    (fun (r_star, expected) ->
      let inst = Eps.Eps_template.base () in
      let template = inst.Eps.Eps_template.template in
      match
        Archex.Ilp_ar.run ~time_limit:!per_solve_limit template ~r_star
      with
      | Archex.Synthesis.Synthesized (arch, info, timing) ->
          Printf.printf
            "  r* = %-8g cost %-7g r~ = %.2e  exact r = %.2e   (paper: %s)\n"
            r_star arch.Archex.Synthesis.cost
            info.Archex.Ilp_ar.approx_estimate
            arch.Archex.Synthesis.reliability expected;
          Printf.printf
            "             %d constraints, setup %.1fs, solver %.1fs%s\n"
            info.Archex.Ilp_ar.constraint_count
            timing.Archex.Synthesis.setup_time
            timing.Archex.Synthesis.solver_time
            (unproven_note [ ar_unproven timing ])
      | Archex.Synthesis.Unfeasible (reason, _, _) ->
          Printf.printf "  r* = %-8g UNFEASIBLE: %s\n" r_star
            (Format.asprintf "%a" Archex.Synthesis.pp_failure_reason reason))
    paper

(* ------------------------------------------------------------------ *)
(* Table II: ILP-MR scaling, LEARNCONS vs lazy                         *)

let table2_strategy strategy label =
  Printf.printf "%s\n" label;
  Printf.printf "  %-18s %-12s %-18s %-15s\n" "|V| (#Generators)"
    "#Iterations" "Analysis time (s)" "Solver time (s)";
  List.iter
    (fun g ->
      let inst = Eps.Eps_template.make ~generators:g in
      let template = inst.Eps.Eps_template.template in
      let t0 = Archex_obs.Clock.now () in
      match
        Archex.Ilp_mr.run ~strategy ~solve_time_limit:!per_solve_limit
          template ~r_star:1e-11
      with
      | Archex.Synthesis.Synthesized (_, trace, timing) ->
          Printf.printf
            "  %-18s %-12d %-18.2f %-15.2f   [total %.1fs]%s\n%!"
            (Printf.sprintf "%d (%d)" (5 * g) g)
            (List.length trace)
            timing.Archex.Synthesis.analysis_time
            timing.Archex.Synthesis.solver_time
            (Archex_obs.Clock.now () -. t0)
            (unproven_note (List.map mr_unproven trace))
      | Archex.Synthesis.Unfeasible (reason, trace, _) ->
          Printf.printf "  %-18s UNFEASIBLE after %d iterations: %s%s\n%!"
            (Printf.sprintf "%d (%d)" (5 * g) g)
            (List.length trace)
            (Format.asprintf "%a" Archex.Synthesis.pp_failure_reason reason)
            (unproven_note (List.map mr_unproven trace)))
    !sizes

let table2 () =
  hr "Table II: ILP-MR scaling (r* = 1e-11, n = 5)";
  table2_strategy Archex.Learn_cons.Estimated
    "LEARNCONS (Algorithm 2, ESTPATH-driven):";
  table2_strategy Archex.Learn_cons.Lazy_one_path
    "Lazy strategy (one path per iteration):"

(* ------------------------------------------------------------------ *)
(* Table III: ILP-AR scaling                                           *)

let table3 () =
  hr "Table III: ILP-AR scaling (r* = 1e-11, n = 5)";
  Printf.printf "  %-18s %-14s %-15s %-15s\n" "|V| (#Generators)"
    "#Constraints" "Setup time (s)" "Solver time (s)";
  List.iter
    (fun g ->
      let inst = Eps.Eps_template.make ~generators:g in
      let template = inst.Eps.Eps_template.template in
      match
        Archex.Ilp_ar.run ~time_limit:!per_solve_limit template
          ~r_star:1e-11
      with
      | Archex.Synthesis.Synthesized (_, info, timing) ->
          Printf.printf "  %-18s %-14d %-15.2f %-15.2f%s\n%!"
            (Printf.sprintf "%d (%d)" (5 * g) g)
            info.Archex.Ilp_ar.constraint_count
            timing.Archex.Synthesis.setup_time
            timing.Archex.Synthesis.solver_time
            (unproven_note [ ar_unproven timing ])
      | Archex.Synthesis.Unfeasible (reason, info, timing) ->
          Printf.printf "  %-18s %-14d %-15.2f (unfeasible: %s)\n%!"
            (Printf.sprintf "%d (%d)" (5 * g) g)
            info.Archex.Ilp_ar.constraint_count
            timing.Archex.Synthesis.setup_time
            (Format.asprintf "%a" Archex.Synthesis.pp_failure_reason reason))
    !sizes

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation_exact () =
  hr "Ablation: exact reliability engines as redundancy grows";
  Printf.printf "  %-8s %-12s %-12s %-12s %-12s\n" "chains" "r" "bdd (s)"
    "incl-excl (s)" "factoring (s)";
  List.iter
    (fun k ->
      let n = (3 * k) + 1 in
      let g = Netgraph.Digraph.create n in
      for i = 0 to k - 1 do
        Netgraph.Digraph.add_edge g (3 * i) ((3 * i) + 1);
        Netgraph.Digraph.add_edge g ((3 * i) + 1) ((3 * i) + 2);
        Netgraph.Digraph.add_edge g ((3 * i) + 2) (n - 1)
      done;
      let net =
        Reliability.Fail_model.make g
          ~sources:(List.init k (fun i -> 3 * i))
          ~node_fail:(Array.make n 2e-4)
      in
      let time engine =
        let t0 = Archex_obs.Clock.now () in
        let r = Reliability.Exact.sink_failure ~engine net ~sink:(n - 1) in
        (r, Archex_obs.Clock.now () -. t0)
      in
      let r, t_bdd = time Reliability.Exact.Bdd_compilation in
      let _, t_ie = time Reliability.Exact.Inclusion_exclusion in
      let _, t_fac = time Reliability.Exact.Factoring in
      Printf.printf "  %-8d %-12.3e %-12.4f %-12.4f %-12.4f\n%!" k r t_bdd
        t_ie t_fac)
    [ 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Benchmark artifacts — BENCH_*.json in the Bench_compare schema      *)

let instance_of generators =
  match generators with
  | None -> Eps.Eps_template.base ()
  | Some g -> Eps.Eps_template.make ~generators:g

(* One ILP-MR run distilled into the flat numeric series of a benchmark
   case.  Counter series (iterations, pb_decisions, pb_conflicts) are
   deterministic across machines; the "_s" series are wall-clock and
   judged at the looser time tolerance by bench-diff. *)
let mr_series ?generators ~r_star () =
  let open Archex_obs in
  let inst = instance_of generators in
  let template = inst.Eps.Eps_template.template in
  let metrics = Metrics.create () in
  let obs = Ctx.make ~metrics () in
  let t0 = Clock.now () in
  let result =
    Archex.Ilp_mr.run ~obs ~solve_time_limit:!per_solve_limit template
      ~r_star
  in
  let wall = Clock.now () -. t0 in
  let metric name = Option.value (Metrics.value metrics name) ~default:0. in
  let trace, timing, tail =
    match result with
    | Archex.Synthesis.Synthesized (arch, trace, timing) ->
        ( trace, timing,
          [ ("feasible", 1.); ("cost", arch.Archex.Synthesis.cost) ] )
    | Archex.Synthesis.Unfeasible (_, trace, timing) ->
        (trace, timing, [ ("feasible", 0.) ])
  in
  [ ("wall_s", wall);
    ("solver_time_s", timing.Archex.Synthesis.solver_time);
    ("analysis_time_s", timing.Archex.Synthesis.analysis_time);
    ("iterations", float_of_int (List.length trace));
    ("pb_decisions", metric "pb.decisions");
    ("pb_conflicts", metric "pb.conflicts") ]
  @ tail

(* Same for an ILP-AR run (no analysis loop; setup dominates instead). *)
let ar_series ?generators ~r_star () =
  let open Archex_obs in
  let inst = instance_of generators in
  let template = inst.Eps.Eps_template.template in
  let metrics = Metrics.create () in
  let obs = Ctx.make ~metrics () in
  let t0 = Clock.now () in
  let result =
    Archex.Ilp_ar.run ~obs ~time_limit:!per_solve_limit template ~r_star
  in
  let wall = Clock.now () -. t0 in
  let metric name = Option.value (Metrics.value metrics name) ~default:0. in
  let info, timing, tail =
    match result with
    | Archex.Synthesis.Synthesized (arch, info, timing) ->
        ( info, timing,
          [ ("feasible", 1.); ("cost", arch.Archex.Synthesis.cost) ] )
    | Archex.Synthesis.Unfeasible (_, info, timing) ->
        (info, timing, [ ("feasible", 0.) ])
  in
  [ ("wall_s", wall);
    ("setup_time_s", timing.Archex.Synthesis.setup_time);
    ("solver_time_s", timing.Archex.Synthesis.solver_time);
    ("constraints", float_of_int info.Archex.Ilp_ar.constraint_count);
    ("pb_decisions", metric "pb.decisions");
    ("pb_conflicts", metric "pb.conflicts") ]
  @ tail

let run_cases ~experiment ~output cases =
  let rows =
    List.map
      (fun (name, run) ->
        let series = run () in
        Printf.printf "  %-16s %s\n%!" name
          (String.concat "  "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) series));
        (name, series))
      cases
  in
  let artifact = Archex_obs.Bench_compare.artifact ~experiment rows in
  Archex_obs.Bench_compare.write_file artifact output;
  Printf.printf "  wrote %s\n" output

let synthesis () =
  hr "Instrumented ILP-MR sweep (writes BENCH_synthesis.json)";
  run_cases ~experiment:"ilp_mr_scaling" ~output:"BENCH_synthesis.json"
    (List.map
       (fun g ->
         ( Printf.sprintf "mr_g%d_r1e-11" g,
           fun () -> mr_series ~generators:g ~r_star:1e-11 () ))
       !sizes)

(* Fast regression sweep for CI: sub-second cases only, diffed against
   bench/baseline/BENCH_smoke.json by [archex bench-diff]. *)
let bench_smoke () =
  hr "Benchmark smoke sweep (writes BENCH_smoke.json)";
  run_cases ~experiment:"smoke" ~output:"BENCH_smoke.json"
    [ ("mr_base_r2e-3", fun () -> mr_series ~r_star:2e-3 ());
      ("mr_base_r2e-6", fun () -> mr_series ~r_star:2e-6 ());
      ("ar_base_r2e-6", fun () -> ar_series ~r_star:2e-6 ());
      ("mr_g4_r2e-6", fun () -> mr_series ~generators:4 ~r_star:2e-6 ()) ]

(* Serial vs parallel sweep: times the parallel surfaces (sharded
   Monte-Carlo, per-sink analysis fan-out, ILP-MR under -j) at jobs 1
   and jobs 4, asserting along the way that every figure is identical —
   the determinism contract — and records the speedups as series.  On a
   single-core box the speedups hover around (or below) 1; the artifact
   is still useful there as a determinism check and overhead gauge. *)
let bench_parallel () =
  hr "Parallel execution sweep (writes BENCH_parallel.json)";
  let open Archex_obs in
  let inst = Eps.Eps_template.base () in
  let template = inst.Eps.Eps_template.template in
  let config =
    match Archex.Gen_ilp.solve (Archex.Gen_ilp.encode template) with
    | Archex.Gen_ilp.Solved { config; _ } -> config
    | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
        failwith "base EPS template not solved"
  in
  let time f =
    let t0 = Clock.now () in
    let r = f () in
    (r, Clock.now () -. t0)
  in
  let assert_eq what a b =
    if a <> b then
      failwith
        (Printf.sprintf "parallel bench: %s diverges across jobs (%g <> %g)"
           what a b)
  in
  (* 1. sharded Monte-Carlo on the synthesized configuration *)
  let net = Archex.Rel_analysis.fail_model_of_config template config in
  let sink = List.hd (Archlib.Template.sinks template) in
  let trials = 400_000 in
  let mc jobs () =
    Reliability.Monte_carlo.estimate_sink_failure ~seed:7 ~jobs ~trials net
      ~sink
  in
  let mc_series () =
    let est1, t1 = time (mc 1) in
    let est4, t4 = time (mc 4) in
    assert_eq "MC failure count"
      (float_of_int est1.Reliability.Monte_carlo.failures)
      (float_of_int est4.Reliability.Monte_carlo.failures);
    [ ("mc_jobs1_s", t1); ("mc_jobs4_s", t4); ("mc_speedup_x", t1 /. t4);
      ("mc_failures", float_of_int est1.Reliability.Monte_carlo.failures) ]
  in
  (* slot-attributed busy seconds accumulated in [metrics] by the pools
     of an instrumented run — the scheduler-efficiency picture next to
     the raw wall-clock speedup *)
  let busy_series prefix metrics jobs =
    List.init jobs (fun i ->
        ( Printf.sprintf "%s_dom%d_busy_s" prefix i,
          Option.value ~default:0.
            (Metrics.value metrics
               (Printf.sprintf "pool.worker_busy_seconds{domain=%S}"
                  (string_of_int i))) ))
  in
  (* 2. per-sink reliability analysis fan-out *)
  let analysis_series () =
    let rep1, t1 =
      time (fun () -> Archex.Rel_analysis.analyze ~jobs:1 template config)
    in
    let metrics = Metrics.create () in
    let obs = Ctx.make ~metrics () in
    let rep4, t4 =
      time (fun () ->
          Archex.Rel_analysis.analyze ~obs ~jobs:4 template config)
    in
    assert_eq "worst-sink failure" rep1.Archex.Rel_analysis.worst
      rep4.Archex.Rel_analysis.worst;
    [ ("analysis_jobs1_s", t1); ("analysis_jobs4_s", t4);
      ("analysis_speedup_x", t1 /. t4) ]
    @ busy_series "analysis" metrics 4
  in
  (* 3. end-to-end ILP-MR cost identity under -j *)
  let mr_parity_series () =
    let run jobs =
      match
        Archex.Ilp_mr.run ~solve_time_limit:!per_solve_limit ~jobs template
          ~r_star:2e-6
      with
      | Archex.Synthesis.Synthesized (arch, _, _) ->
          arch.Archex.Synthesis.cost
      | Archex.Synthesis.Unfeasible _ -> failwith "base EPS mr unfeasible"
    in
    let c1, t1 = time (fun () -> run 1) in
    let c4, t4 = time (fun () -> run 4) in
    assert_eq "ILP-MR cost" c1 c4;
    [ ("mr_jobs1_s", t1); ("mr_jobs4_s", t4); ("mr_cost", c1) ]
  in
  run_cases ~experiment:"parallel" ~output:"BENCH_parallel.json"
    [ ("monte_carlo", mc_series); ("rel_analysis", analysis_series);
      ("ilp_mr_jobs", mr_parity_series) ]

(* Serve-daemon throughput sweep: a burst of fast synthesis jobs pushed
   straight into the job engine (no transport), sized past the admission
   watermark so the shed/degrade path runs too.  Latency series come
   from each done event's [elapsed_s] (accepted -> terminal, queue wait
   included); the shed rate is rejected / submitted. *)
let bench_serve () =
  hr "Serve daemon sweep (writes BENCH_serve.json)";
  let open Archex_obs in
  let module Engine = Archex_serve.Engine in
  let module Admission = Archex_serve.Admission in
  let module Protocol = Archex_serve.Protocol in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "archex-bench-serve-%d" (Unix.getpid ()))
  in
  let n_jobs = 24 in
  let config =
    { Engine.default_config with
      pool_jobs = 2;
      admission =
        { Admission.default with capacity = 8; shed_watermark = 0.5 } }
  in
  let lock = Mutex.create () in
  let events = ref [] in
  let emit ev =
    Mutex.lock lock;
    events := ev :: !events;
    Mutex.unlock lock
  in
  let serve_series () =
    match Engine.create ~config ~dir ~emit () with
    | Error msg -> failwith ("bench-serve: " ^ msg)
    | Ok engine ->
        let t0 = Clock.now () in
        for i = 1 to n_jobs do
          Engine.submit engine
            { Protocol.id = Printf.sprintf "b%d" i;
              op = Protocol.Mr;
              r_star = 2e-3;
              generators = None;
              deadline_s = None;
              max_nodes = None;
              bdd_limit = None;
              jobs = 1 }
        done;
        while Engine.pending engine > 0 do
          ignore (Engine.tick engine);
          Unix.sleepf 0.005
        done;
        let wall = Clock.now () -. t0 in
        Engine.drain engine;
        Engine.shutdown engine;
        let tagged tag =
          List.filter
            (fun ev ->
              match Json.mem "ev" ev with
              | Some (Json.Str t) -> t = tag
              | _ -> false)
            !events
        in
        let dones = tagged "done" and rejected = tagged "rejected" in
        let degraded =
          List.length
            (List.filter
               (fun ev -> Json.mem "degraded" ev = Some (Json.Bool true))
               (tagged "accepted"))
        in
        let latencies =
          List.filter_map
            (fun ev ->
              match Json.mem "elapsed_s" ev with
              | Some (Json.Num s) -> Some s
              | _ -> None)
            dones
          |> List.sort Float.compare
          |> Array.of_list
        in
        let latency name p =
          Option.map (fun v -> (name, v)) (nearest_rank latencies p)
        in
        [ ("jobs", float_of_int n_jobs);
          ("completed", float_of_int (List.length dones));
          ("rejected", float_of_int (List.length rejected));
          ("degraded", float_of_int degraded);
          ("wall_s", wall);
          ("jobs_per_s", float_of_int (List.length dones) /. wall);
          ( "shed_rate",
            float_of_int (List.length rejected) /. float_of_int n_jobs ) ]
        @ List.filter_map Fun.id
            [ latency "latency_p50_s" 0.50;
              latency "latency_p99_s" 0.99;
              latency "latency_max_s" 1. ]
  in
  run_cases ~experiment:"serve" ~output:"BENCH_serve.json"
    [ ("mr_burst", serve_series) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel.   *)

let bechamel () =
  hr "Bechamel micro-benchmarks (kernels behind each table/figure)";
  let open Bechamel in
  let base_config () =
    let inst = Eps.Eps_template.base () in
    let template = inst.Eps.Eps_template.template in
    let enc = Archex.Gen_ilp.encode template in
    match Archex.Gen_ilp.solve enc with
    | Archex.Gen_ilp.Solved { config; _ } -> (template, config)
    | Archex.Gen_ilp.No_solution _ | Archex.Gen_ilp.Exhausted _ ->
        failwith "base EPS not solved"
  in
  let template, config = base_config () in
  let test_fig2_analysis =
    (* Fig. 2 / Table II analysis column: one exact RELANALYSIS call *)
    Test.make ~name:"fig2/table2: exact reliability analysis"
      (Staged.stage (fun () ->
           ignore (Archex.Rel_analysis.analyze template config)))
  in
  let test_fig3_approx =
    (* Fig. 3: the approximate algebra on a configuration *)
    let part = Archlib.Template.partition template in
    let expanded = Archlib.Template.expand_redundant_pairs template config in
    let sinks = Archlib.Template.sinks template in
    let sources = Archlib.Template.sources template in
    Test.make ~name:"fig3: approximate reliability algebra"
      (Staged.stage (fun () ->
           List.iter
             (fun sink ->
               let link =
                 Reliability.Approx.functional_link expanded part ~sources
                   ~sink
               in
               ignore
                 (Reliability.Approx.failure_estimate part
                    ~type_fail:(fun _ -> 2e-4)
                    link))
             sinks))
  in
  let test_table2_solve =
    (* Table II solver column: the interconnection-only ILP *)
    Test.make ~name:"table2: base EPS ILP solve (PB backend)"
      (Staged.stage (fun () ->
           let inst = Eps.Eps_template.base () in
           let enc = Archex.Gen_ilp.encode inst.Eps.Eps_template.template in
           ignore (Archex.Gen_ilp.solve enc)))
  in
  let test_table3_setup =
    (* Table III setup column: GENILP-AR compilation *)
    Test.make ~name:"table3: ILP-AR model generation (base template)"
      (Staged.stage (fun () ->
           let inst = Eps.Eps_template.base () in
           ignore
             (Archex.Ilp_ar.compile inst.Eps.Eps_template.template
                ~r_star:1e-11)))
  in
  let test_example1 =
    Test.make ~name:"example1: BDD exact engine on Fig. 1b"
      (Staged.stage (fun () ->
           let g =
             Netgraph.Digraph.of_edges 7
               [ (0, 2); (2, 4); (4, 6); (1, 3); (3, 5); (5, 6) ]
           in
           let net =
             Reliability.Fail_model.make g ~sources:[ 0; 1 ]
               ~node_fail:(Array.make 7 2e-4)
           in
           ignore (Reliability.Exact.sink_failure net ~sink:6)))
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~quota ())
      [ Toolkit.Instance.monotonic_clock ]
      test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ time ] ->
              Printf.printf "  %-55s %12.1f ns/run\n" name time
          | Some _ | None ->
              Printf.printf "  %-55s (no estimate)\n" name)
        results)
    [ test_example1; test_fig2_analysis; test_fig3_approx;
      test_table2_solve; test_table3_setup ]

(* ------------------------------------------------------------------ *)

let artifacts =
  [ ("table1", table1); ("example1", example1); ("fig2", fig2);
    ("fig3", fig3); ("table2", table2); ("table3", table3);
    ("ablation-exact", ablation_exact);
    ("synthesis", synthesis); ("bench-smoke", bench_smoke);
    ("bench-parallel", bench_parallel); ("bench-serve", bench_serve);
    ("bechamel", bechamel) ]

let default_artifacts =
  [ "table1"; "example1"; "fig2"; "fig3"; "table2"; "table3";
    "ablation-exact"; "bechamel" ]

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let args = List.tl (Array.to_list Sys.argv) in
  let usage () =
    prerr_endline
      "usage: main.exe [--sizes N,N,...] [--limit SECONDS] [ARTIFACT...]";
    exit 2
  in
  let number flag of_string spec =
    match of_string spec with
    | Some v -> v
    | None ->
        Printf.eprintf "%s: not a number: %S\n" flag spec;
        usage ()
  in
  let rec parse selected = function
    | [] -> List.rev selected
    | "--sizes" :: spec :: rest ->
        sizes :=
          List.map (number "--sizes" int_of_string_opt)
            (String.split_on_char ',' spec);
        parse selected rest
    | "--limit" :: spec :: rest ->
        per_solve_limit := number "--limit" float_of_string_opt spec;
        parse selected rest
    | name :: rest ->
        if List.mem_assoc name artifacts then parse (name :: selected) rest
        else begin
          Printf.eprintf "unknown artifact %S; known: %s\n" name
            (String.concat ", " (List.map fst artifacts));
          usage ()
        end
  in
  let selected = parse [] args in
  let selected = if selected = [] then default_artifacts else selected in
  List.iter (fun name -> (List.assoc name artifacts) ()) selected
