(* ARCHEX command-line interface: synthesize aircraft EPS architectures
   with ILP-MR or ILP-AR, inspect templates and export models. *)

open Cmdliner

let instance_of generators =
  match generators with
  | None -> Eps.Eps_template.base ()
  | Some g -> Eps.Eps_template.make ~generators:g

let generators_arg =
  let doc =
    "Use the scaling-family template with $(docv) generators (|V| = 5·g). \
     Without this option the paper's base template (Table I components) is \
     used."
  in
  Arg.(value & opt (some int) None & info [ "g"; "generators" ] ~doc
         ~docv:"G")

let r_star_arg =
  let doc = "Required worst-sink failure probability r*." in
  Arg.(value & opt float 2e-10 & info [ "r"; "r-star" ] ~doc ~docv:"R")

let jobs_arg =
  let doc =
    "Number of domains for the per-sink reliability analysis (and the \
     Monte-Carlo rung when the analysis degrades to sampling).  Results \
     are identical at any $(docv) — parallelism only changes wall-clock \
     time."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc ~docv:"JOBS")

(* --lazy: [Some Lazy_one_path], or [None] for the library's default —
   ESTPATH-driven learning, or a resumed checkpoint's own strategy. *)
let strategy_arg =
  let doc = "Use the lazy one-path-per-iteration learning strategy \
             (Table II baseline) instead of ESTPATH-driven learning."
  in
  Term.(
    const (fun lazy_ ->
        if lazy_ then Some Archex.Learn_cons.Lazy_one_path else None)
    $ Arg.(value & flag & info [ "lazy" ] ~doc))

let diagram_arg =
  let doc = "Print the single-line diagram of the result." in
  Arg.(value & flag & info [ "diagram" ] ~doc)

(* Observability: --trace/--metrics/--metrics-out/--metrics-stream/
   --progress are shared by every synthesis command and funnel into one
   Archex_obs.Ctx (plus, for the two periodic outputs, a background
   Archex_obs.Runtime sampler). *)

type obs_opts = {
  trace_file : string option;
  metrics_file : string option;     (* JSON snapshot at exit *)
  metrics_out : string option;      (* Prometheus exposition, live *)
  metrics_stream : string option;   (* NDJSON sample time series *)
  sample_period : float;
  progress : bool;
  no_record : bool;
  runtime_events : bool;
}

(* --sample-period must be strictly positive: zero or negative would
   busy-loop the sampler domain.  Rejected at parse time so the error
   names the flag instead of surfacing as Runtime.start's exception. *)
let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0. -> Ok v
    | Some _ -> Error (`Msg "must be strictly positive")
    | None -> Error (`Msg (Printf.sprintf "invalid value %S" s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

(* The same for counts: a node budget of zero or less can only fail. *)
let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some _ -> Error (`Msg "must be strictly positive")
    | None -> Error (`Msg (Printf.sprintf "invalid value %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let obs_args =
  let trace_arg =
    let doc =
      "Write an NDJSON span trace of the run to $(docv) (one JSON object \
       per span boundary or event; inspect with $(b,trace-check))."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let metrics_arg =
    let doc =
      "Write a JSON snapshot of the solver metrics (counters, gauges, \
       histograms) to $(docv) at exit."
    in
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~doc ~docv:"FILE")
  in
  let metrics_out_arg =
    let doc =
      "Write the metrics registry to $(docv) in Prometheus text \
       exposition format, atomically rewritten every sample period while \
       the run is in flight — point any scraper at the file."
    in
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~doc ~docv:"FILE")
  in
  let metrics_stream_arg =
    let doc =
      "Append one NDJSON metrics sample per period to $(docv) while the \
       run is in flight ($(b,archex top) renders this stream)."
    in
    Arg.(value & opt (some string) None
         & info [ "metrics-stream" ] ~doc ~docv:"FILE")
  in
  let period_arg =
    let doc =
      "Sampling period in seconds for $(b,--metrics-out) and \
       $(b,--metrics-stream)."
    in
    Arg.(value & opt pos_float_conv 1.0
         & info [ "sample-period" ] ~doc ~docv:"SECONDS")
  in
  let progress_arg =
    let doc =
      "Print solver progress (heartbeats, incumbents, iterations) to \
       standard error while the run is in flight."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let no_record_arg =
    let doc =
      "Do not record this invocation in the run registry \
       ($(b,_archex/runs), or $(b,ARCHEX_RUNS_DIR) when set)."
    in
    Arg.(value & flag & info [ "no-record" ] ~doc)
  in
  let runtime_events_arg =
    let doc =
      "Bridge the OCaml runtime's GC events into the observability \
       outputs: per-domain $(b,gc.*) spans in the $(b,--trace) stream \
       (rendered as GC tracks by $(b,trace-export --chrome), attributed \
       to enclosing spans by $(b,trace-profile)) and a \
       $(b,gc.pause_seconds) histogram plus per-domain pause counters \
       in the metrics registry."
    in
    Arg.(value & flag & info [ "runtime-events" ] ~doc)
  in
  Term.(
    const (fun trace_file metrics_file metrics_out metrics_stream
               sample_period progress no_record runtime_events ->
        { trace_file; metrics_file; metrics_out; metrics_stream;
          sample_period; progress; no_record; runtime_events })
    $ trace_arg $ metrics_arg $ metrics_out_arg $ metrics_stream_arg
    $ period_arg $ progress_arg $ no_record_arg $ runtime_events_arg)

let stats_arg =
  let doc = "Print per-iteration solver statistics." in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* Resilience: --deadline/--max-nodes/--bdd-limit build the global
   Archex_resilience.Budget shared by every synthesis command; --inject
   installs a deterministic fault plan for the whole run.  Exit codes:
   0 synthesized, 1 proved unfeasible (or saturated / iteration limit),
   3 budget exhausted, 4 invalid input (bad checkpoint, hostile
   template). *)

let exit_unfeasible = 1
let exit_exhausted = 3
let exit_invalid = 4
let exit_interrupted = 130

(* Cooperative interruption: the first SIGINT/SIGTERM sets a flag that
   every budget polls (Budget's cancel hook), so the run winds down
   through its normal limit-exit path — the last checkpoint is already
   flushed (checkpoints are written after every iteration) and the run
   registry records an "interrupted" verdict with exit code 130.  A
   second signal exits immediately. *)
let interrupted = Atomic.make false

(* What else the first signal should do (archex serve: start draining). *)
let interrupt_hook : (unit -> unit) ref = ref (fun () -> ())

let install_interrupt_handlers () =
  let handler _ =
    if Atomic.get interrupted then exit exit_interrupted
    else begin
      Atomic.set interrupted true;
      !interrupt_hook ()
    end
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handler)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let fault_plan_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m)
      (Archex_resilience.Faults.parse_spec s)
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<fault-plan>")

let resilience_args =
  let deadline_arg =
    let doc =
      "Global wall-clock deadline for the whole run, in seconds.  Every \
       SOLVEILP call runs under a slice of what remains, so one deadline \
       governs all iterations; on exhaustion the run reports \
       BUDGET-EXHAUSTED (exit 3), never UNFEASIBLE."
    in
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~doc ~docv:"SECONDS")
  in
  let max_nodes_arg =
    let doc = "Global search-node budget shared by every solve." in
    Arg.(value & opt (some int) None & info [ "max-nodes" ] ~doc ~docv:"N")
  in
  let bdd_limit_arg =
    let doc =
      "BDD node ceiling for the exact reliability oracle.  When a sink's \
       BDD outgrows it the analysis degrades to cut-set bounds, then to \
       seeded Monte Carlo (reported per sink, consumed conservatively)."
    in
    Arg.(value & opt (some int) None & info [ "bdd-limit" ] ~doc ~docv:"N")
  in
  let heap_limit_arg =
    let doc =
      "GC heap watermark in words; checked at every budget check (and the \
       probe point of injected alloc-pressure faults)."
    in
    Arg.(value & opt (some int) None
         & info [ "heap-limit" ] ~doc ~docv:"WORDS")
  in
  let inject_arg =
    let doc =
      "Deterministic fault injection, e.g. $(b,oracle-failure@2) or \
       $(b,clock-jump/3,solver-limit~0.1).  Kinds: clock-jump, \
       oracle-failure, solver-limit, alloc-pressure, and (for \
       $(b,archex serve)) queue-overload, job-crash, slow-client; \
       triggers: @N = the N-th probe, /N = every N-th, ~P = seeded \
       Bernoulli.  clock-jump probes only fire under a --deadline, \
       alloc-pressure only under a --heap-limit."
    in
    Arg.(value & opt (some fault_plan_conv) None
         & info [ "inject" ] ~doc ~docv:"SPEC")
  in
  Term.(
    const (fun deadline max_nodes bdd_limit heap_limit inject ->
        (deadline, max_nodes, bdd_limit, heap_limit, inject))
    $ deadline_arg $ max_nodes_arg $ bdd_limit_arg $ heap_limit_arg
    $ inject_arg)

(* Budgets always carry the interrupt flag as their cancel hook — even a
   limit-less run stops cooperatively on the first signal. *)
let budget_of (deadline, max_nodes, bdd_limit, heap_limit, _) =
  Archex_resilience.Budget.create
    ~cancelled:(fun () -> Atomic.get interrupted)
    ?deadline ?max_nodes ?max_bdd_nodes:bdd_limit
    ?max_heap_words:heap_limit ()

let with_faults (_, _, _, _, inject) f =
  match inject with
  | None -> f ()
  | Some plan -> Archex_resilience.Faults.with_plan plan f

(* Surface the wall-clock budget as a gauge so a dashboard (archex top)
   can render budget consumption next to elapsed time. *)
let note_budget obs (deadline, _, _, _, _) =
  match deadline with
  | Some d ->
      Archex_obs.Metrics.set
        (Archex_obs.Metrics.gauge
           (Archex_obs.Ctx.metrics obs)
           "budget.deadline_seconds")
        d
  | None -> ()

let report_unfeasible what n reason =
  Format.printf "%s after %d iteration(s): %a@." what n
    Archex.Synthesis.pp_failure_reason reason;
  if Archex.Synthesis.is_budget_failure reason then exit_exhausted
  else exit_unfeasible

(* Exit-code → registry verdict (see the exit-code table above). *)
let verdict_of_code = function
  | 0 -> "ok"
  | 1 -> "unfeasible"
  | 3 -> "budget-exhausted"
  | 4 -> "invalid-input"
  | 130 -> "interrupted"
  | n -> Printf.sprintf "error-%d" n

(* MD5 over the canonical JSON of the template's base ILP model: the run
   registry's content identity for "same problem". *)
let model_hash_of template =
  Digest.to_hex
    (Digest.string
       (Archex_obs.Json.to_string
          (Milp.Model.to_json
             (Archex.Gen_ilp.model (Archex.Gen_ilp.encode template)))))

(* Registry series: the diffable counters/gauges of a finished run.  GC
   and scheduler-state gauges (heap words, queue depth at exit, …) are
   noise between runs, so only solver-shaped families are kept. *)
let series_prefixes =
  [ "mr."; "ar."; "solve."; "solver."; "pb."; "rel."; "progress.";
    "pool.jobs_"; "gc.pause"; "serve." ]

let series_of_metrics metrics =
  match Archex_obs.Metrics.to_json metrics with
  | Archex_obs.Json.Obj fields ->
      List.concat_map
        (fun (name, v) ->
          if
            not
              (List.exists
                 (fun p -> String.starts_with ~prefix:p name)
                 series_prefixes)
          then []
          else
            match v with
            | Archex_obs.Json.Num x -> [ (name, x) ]
            | Archex_obs.Json.Obj _ ->
                (* histogram (gc.pause_seconds): record its scalar sum and
                   count so [runs diff] / [archex trend] can gate on them *)
                List.filter_map
                  (fun field ->
                    Option.map
                      (fun x -> (name ^ "_" ^ field, x))
                      (Option.bind
                         (Archex_obs.Json.mem field v)
                         Archex_obs.Json.to_float))
                  [ "sum"; "count" ]
            | _ -> [])
        fields
  | _ -> []

(* Run [f obs on_event] with sinks wired to the requested files; the trace
   channel is closed, the background sampler stopped and the metrics
   snapshot written even when [f] raises or exits nonzero.  With [record]
   = [(command, model_hash)] the finished run is stored in the run
   registry (unless --no-record), its artifacts being whatever
   trace/metrics files the invocation asked for, plus any
   command-specific [artifacts] (the inspect report). *)
let with_obs ?record ?(artifacts = []) opts f =
  let open_sink path =
    try open_out path
    with Sys_error msg ->
      Format.eprintf "archex: cannot open %s@." msg;
      exit 1
  in
  let ndjson_sink oc j =
    output_string oc (Archex_obs.Json.to_string j);
    output_char oc '\n'
  in
  let trace_oc, tracer =
    match opts.trace_file with
    | None -> (None, Archex_obs.Trace.null)
    | Some path ->
        let oc = open_sink path in
        (Some oc, Archex_obs.Trace.make (ndjson_sink oc))
  in
  let recording = record <> None && not opts.no_record in
  let metrics =
    if
      opts.metrics_file = None && opts.metrics_out = None
      && opts.metrics_stream = None && not recording
      && not opts.runtime_events
    then Archex_obs.Metrics.null
    else Archex_obs.Metrics.create ()
  in
  (* the GC bridge needs a live registry for its pause histogram, and a
     sampler domain to poll its cursor (started below even when no
     periodic output was asked for) *)
  let bridge =
    if opts.runtime_events then
      Some (Archex_obs.Runtime_events_bridge.start ~trace:tracer metrics ())
    else None
  in
  let obs = Archex_obs.Ctx.make ~trace:tracer ~metrics () in
  (* progress events go to stderr when asked for, and are always recorded
     into the trace (as "progress" instants) when one is being written —
     that is what lets trace-profile/report reconstruct the solver
     convergence timeline afterwards.  With a live metrics registry they
     are additionally mirrored into progress.* gauges, which is what
     gives [archex top] (and the registry series) the incumbent/bound
     gap and iteration counter without a second event channel. *)
  let stderr_sink =
    if opts.progress then
      Some (fun ev -> Format.eprintf "%a@." Archex_obs.Event.pp ev)
    else None
  in
  let trace_sink =
    if Archex_obs.Trace.enabled tracer then
      Some
        (fun ev ->
          match Archex_obs.Event.to_json ev with
          | Archex_obs.Json.Obj attrs ->
              Archex_obs.Trace.instant ~attrs tracer "progress"
          | _ -> ())
    else None
  in
  let gauge_sink =
    if Archex_obs.Metrics.enabled metrics then
      Some
        (fun ev ->
          List.iter
            (fun (k, v) ->
              match k with
              | "incumbent" | "bound" | "iteration" | "cost" ->
                  Archex_obs.Metrics.set
                    (Archex_obs.Metrics.gauge metrics ("progress." ^ k))
                    v
              | _ -> ())
            ev.Archex_obs.Event.data)
    else None
  in
  let on_event =
    match
      List.filter_map Fun.id [ stderr_sink; trace_sink; gauge_sink ]
    with
    | [] -> None
    | sinks -> Some (fun ev -> List.iter (fun f -> f ev) sinks)
  in
  let stream_oc = Option.map open_sink opts.metrics_stream in
  let sampler =
    if opts.metrics_out = None && stream_oc = None && bridge = None then
      None
    else
      Some
        (Archex_obs.Runtime.start ~period:opts.sample_period
           ?ndjson:(Option.map ndjson_sink stream_oc)
           ?prom_path:opts.metrics_out ?bridge metrics)
  in
  let started = Unix.gettimeofday () in
  let t0 = Archex_obs.Clock.now () in
  let code =
    Fun.protect
      ~finally:(fun () ->
        (* stop the sampler first: its final sample flushes the last
           Prometheus exposition and NDJSON record before the sinks
           close *)
        (try Option.iter Archex_obs.Runtime.stop sampler
         with exn ->
           Format.eprintf "archex: metrics sampler failed: %s@."
             (Printexc.to_string exn));
        (* after the sampler (its slices poll the bridge), before the
           trace sink closes (stop's final poll still emits spans) *)
        Option.iter Archex_obs.Runtime_events_bridge.stop bridge;
        Option.iter close_out stream_oc;
        Option.iter close_out trace_oc;
        Option.iter
          (fun path ->
            (* final GC gauge sample so the snapshot reflects the whole
               run *)
            Archex_obs.Gc_metrics.sample metrics;
            try Archex_obs.Metrics.write_file metrics path
            with Sys_error msg ->
              Format.eprintf "archex: cannot write %s@." msg;
              exit 1)
          opts.metrics_file)
      (fun () -> f obs on_event)
  in
  (* a budget-exhausted exit that was actually the user's signal is
     reported as interrupted (exit 130, registry verdict "interrupted");
     a run that completed before noticing the signal keeps its result *)
  let code =
    if code <> 0 && Atomic.get interrupted then exit_interrupted else code
  in
  (match record with
  | Some (command, model_hash) when not opts.no_record -> (
      let wall_s = Archex_obs.Clock.now () -. t0 in
      let artifacts =
        artifacts
        @ List.filter_map Fun.id
            [ opts.trace_file; opts.metrics_file; opts.metrics_out;
              opts.metrics_stream ]
      in
      match
        Archex_obs.Run_registry.record ~command
          ~argv:(Array.to_list Sys.argv) ?model_hash
          ~verdict:(verdict_of_code code) ~exit_code:code ~started ~wall_s
          ~series:(series_of_metrics metrics) ~artifacts ()
      with
      | Ok meta ->
          Format.eprintf "archex: run %s recorded@."
            meta.Archex_obs.Run_registry.id
      | Error msg ->
          Format.eprintf "archex: run not recorded: %s@." msg)
  | _ -> ());
  code

let report inst arch diagram =
  let template = inst.Eps.Eps_template.template in
  Format.printf "%a@." (Archex.Synthesis.pp_architecture template) arch;
  if diagram then Eps.Eps_diagram.print inst arch.Archex.Synthesis.config

let checkpoint_arg =
  let doc =
    "Write a resumable checkpoint of the run to $(docv) (atomically, \
     after every iteration)."
  in
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~doc ~docv:"FILE")

let resume_arg =
  let doc =
    "Resume a checkpointed run from $(docv): the completed iterations \
     are replayed deterministically (r* and the learning strategy come \
     from the checkpoint), then the loop continues where it stopped."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~doc ~docv:"FILE")

let mr_term =
  let run generators r_star strategy diagram obs3 stats res checkpoint resume
      jobs =
    install_interrupt_handlers ();
    let inst = instance_of generators in
    let budget = budget_of res in
    with_obs
      ~record:("mr", Some (model_hash_of inst.Eps.Eps_template.template))
      obs3
    @@ fun obs on_event ->
    note_budget obs res;
    with_faults res @@ fun () ->
    let resume_from =
      Option.map
        (fun path ->
          match Archex.Checkpoint.load path with
          | Error msg ->
              Format.eprintf "archex: cannot resume from %s: %s@." path msg;
              exit exit_invalid
          | Ok from ->
              Format.eprintf
                "archex: resuming after iteration %d (r* = %g)@."
                (List.length from.Archex.Checkpoint.iterations)
                from.Archex.Checkpoint.r_star;
              from)
        resume
    in
    let r_star =
      match resume_from with
      | Some from -> from.Archex.Checkpoint.r_star
      | None -> r_star
    in
    let result =
      Archex.Ilp_mr.run ~obs ?on_event ?strategy ~budget ?checkpoint
        ?resume_from ~jobs inst.Eps.Eps_template.template ~r_star
    in
    match result with
    | Archex.Synthesis.Synthesized (arch, trace, timing) ->
        List.iter
          (fun it ->
            Format.printf "iteration %d: cost %g, r = %.3e%s@."
              it.Archex.Ilp_mr.index it.Archex.Ilp_mr.cost
              it.Archex.Ilp_mr.reliability
              (match it.Archex.Ilp_mr.k_estimate with
              | Some k -> Printf.sprintf " (k = %d)" k
              | None -> "");
            if stats then
              Format.printf "  %a@." Milp.Solver.pp_run_stats
                it.Archex.Ilp_mr.stats)
          trace;
        report inst arch diagram;
        Format.printf "solver %.2fs, analysis %.2fs@."
          timing.Archex.Synthesis.solver_time
          timing.Archex.Synthesis.analysis_time;
        0
    | Archex.Synthesis.Unfeasible (reason, trace, _) ->
        report_unfeasible "UNFEASIBLE" (List.length trace) reason
  in
  Term.(
    const run $ generators_arg $ r_star_arg $ strategy_arg
    $ diagram_arg $ obs_args $ stats_arg $ resilience_args $ checkpoint_arg
    $ resume_arg $ jobs_arg)

let mr_cmd =
  let doc = "Synthesize with ILP Modulo Reliability (Algorithm 1)." in
  Cmd.v (Cmd.info "mr" ~doc) mr_term

let inspect_cmd =
  let run generators r_star strategy obs3 res jobs top_k json out =
    let inst = instance_of generators in
    let budget = budget_of res in
    with_obs
      ~record:
        ("inspect", Some (model_hash_of inst.Eps.Eps_template.template))
      ~artifacts:(Option.to_list out) obs3
    @@ fun obs on_event ->
    note_budget obs res;
    with_faults res @@ fun () ->
    let result =
      Archex.Ilp_mr.run ~obs ?on_event ?strategy ~budget ~jobs
        ~inspect:true inst.Eps.Eps_template.template ~r_star
    in
    (* the report is worth rendering for unfeasible runs too — the
       iterations that did solve still carry their insight records *)
    let trace, code =
      match result with
      | Archex.Synthesis.Synthesized (arch, trace, _) ->
          Format.eprintf "%a@."
            (Archex.Synthesis.pp_architecture inst.Eps.Eps_template.template)
            arch;
          (trace, 0)
      | Archex.Synthesis.Unfeasible (reason, trace, _) ->
          Format.eprintf "UNFEASIBLE after %d iteration(s): %a@."
            (List.length trace) Archex.Synthesis.pp_failure_reason reason;
          ( trace,
            if Archex.Synthesis.is_budget_failure reason then exit_exhausted
            else exit_unfeasible )
    in
    let insights =
      List.filter_map (fun it -> it.Archex.Ilp_mr.insight) trace
    in
    let rep = Archex_inspect.build ~insights in
    let text =
      if json then
        Archex_obs.Json.to_string (Archex_inspect.to_json rep) ^ "\n"
      else Archex_inspect.to_markdown ~top_k rep
    in
    (match out with
    | None -> print_string text
    | Some path ->
        let oc =
          try open_out path
          with Sys_error msg ->
            Format.eprintf "archex: cannot open %s@." msg;
            exit 1
        in
        output_string oc text;
        close_out oc;
        Format.eprintf "archex: inspect report written to %s@." path);
    code
  in
  let top_k_arg =
    let doc = "Number of rows in the top-pruning-rows table." in
    Arg.(value & opt int 10 & info [ "top-k" ] ~doc ~docv:"K")
  in
  let json_arg =
    let doc = "Emit the report as JSON instead of markdown." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let out_arg =
    let doc =
      "Write the report to $(docv) (recorded as a registry artifact) \
       instead of standard output."
    in
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let doc =
    "Run ILP-MR with search-effectiveness inspection and report which \
     constraints actually prune (per-row activity with birth iterations), \
     which learned rows are dead, how the model grows per iteration, and \
     per-iteration learned-cut effectiveness.  The synthesis result goes \
     to standard error."
  in
  Cmd.v (Cmd.info "inspect" ~doc)
    Term.(
      const run $ generators_arg $ r_star_arg $ strategy_arg
      $ obs_args $ resilience_args $ jobs_arg $ top_k_arg $ json_arg
      $ out_arg)

let ar_cmd =
  let run generators r_star diagram obs3 res jobs =
    install_interrupt_handlers ();
    let inst = instance_of generators in
    let budget = budget_of res in
    with_obs
      ~record:("ar", Some (model_hash_of inst.Eps.Eps_template.template))
      obs3
    @@ fun obs on_event ->
    note_budget obs res;
    with_faults res @@ fun () ->
    match
      Archex.Ilp_ar.run ~obs ?on_event ~budget ~jobs
        inst.Eps.Eps_template.template ~r_star
    with
    | Archex.Synthesis.Synthesized (arch, info, timing) ->
        Format.printf
          "approximate r~ = %.3e (Theorem 2 bound %.3f); %d constraints@."
          info.Archex.Ilp_ar.approx_estimate
          info.Archex.Ilp_ar.theorem2_bound
          info.Archex.Ilp_ar.constraint_count;
        report inst arch diagram;
        Format.printf "setup %.2fs, solver %.2fs@."
          timing.Archex.Synthesis.setup_time
          timing.Archex.Synthesis.solver_time;
        0
    | Archex.Synthesis.Unfeasible (reason, info, _) ->
        Format.printf "UNFEASIBLE (%d constraints): %a@."
          info.Archex.Ilp_ar.constraint_count
          Archex.Synthesis.pp_failure_reason reason;
        if Archex.Synthesis.is_budget_failure reason then exit_exhausted
        else exit_unfeasible
  in
  let doc = "Synthesize with ILP + Approximate Reliability (Algorithm 3)." in
  Cmd.v (Cmd.info "ar" ~doc)
    Term.(
      const run $ generators_arg $ r_star_arg $ diagram_arg
      $ obs_args $ resilience_args $ jobs_arg)

let analyze_cmd =
  let run generators obs3 jobs =
    let inst = instance_of generators in
    let template = inst.Eps.Eps_template.template in
    with_obs ~record:("analyze", Some (model_hash_of template)) obs3
    @@ fun obs on_event ->
    let enc = Archex.Gen_ilp.encode ~obs template in
    match Archex.Gen_ilp.solve ~obs ?on_event enc with
    | Archex.Gen_ilp.No_solution _ ->
        Format.printf "template is infeasible@.";
        1
    | Archex.Gen_ilp.Exhausted { error; _ } ->
        Format.eprintf "analyze: %s@."
          (Archex_resilience.Error.to_string error);
        exit_exhausted
    | Archex.Gen_ilp.Solved { config; objective = cost; _ } ->
        let report =
          Archex.Rel_analysis.analyze ~obs ~jobs template config
        in
        Format.printf
          "minimal architecture: cost %g, worst failure %.3e@." cost
          report.Archex.Rel_analysis.worst;
        Eps.Eps_diagram.print inst config;
        0
  in
  let doc =
    "Solve connectivity and power-flow only and report exact reliability \
     of the minimal architecture."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ generators_arg $ obs_args $ jobs_arg)

let export_cmd =
  let run generators r_star path =
    let inst = instance_of generators in
    let enc, info =
      Archex.Ilp_ar.compile inst.Eps.Eps_template.template ~r_star
    in
    Milp.Lp_format.write_file path (Archex.Gen_ilp.model enc);
    Format.printf "wrote %s (%d constraints, %d variables)@." path
      info.Archex.Ilp_ar.constraint_count info.Archex.Ilp_ar.variable_count;
    0
  in
  let path_arg =
    Arg.(value & opt string "archex.lp" & info [ "o"; "output" ]
           ~docv:"FILE" ~doc:"Output file.")
  in
  let doc = "Compile the ILP-AR model and export it in CPLEX LP format." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ generators_arg $ r_star_arg $ path_arg)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse an NDJSON trace keeping source line numbers; exits 1 with a
   message on malformed JSON. *)
let load_trace path =
  match Archex_obs.Json.parse_lines_numbered (read_whole_file path) with
  | Ok events -> events
  | Error msg ->
      Format.eprintf "%s: invalid NDJSON: %s@." path msg;
      exit 1

let load_json path =
  match Archex_obs.Json.of_string (String.trim (read_whole_file path)) with
  | Ok j -> j
  | Error msg ->
      Format.eprintf "%s: invalid JSON: %s@." path msg;
      exit 1

let write_file path content =
  let oc =
    try open_out path
    with Sys_error msg ->
      Format.eprintf "archex: cannot open %s@." msg;
      exit 1
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let write_json_file path j =
  write_file path (Archex_obs.Json.to_string j ^ "\n")

let trace_arg_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"TRACE" ~doc:"NDJSON trace written by $(b,--trace).")

let trace_check_cmd =
  let run path tree =
    let numbered = load_trace path in
    match Archex_obs.Trace.validate numbered with
    | [] ->
        Format.printf "%s: %d events, valid@." path (List.length numbered);
        if tree then
          Format.printf "%a@." Archex_obs.Trace.pp_tree
            (Archex_obs.Trace.tree_of_events (List.map snd numbered));
        0
    | errors ->
        List.iter
          (fun (line, msg) ->
            Format.eprintf "%s:%d: %s@." path line msg)
          errors;
        Format.eprintf "%s: %d error(s) in %d events@." path
          (List.length errors) (List.length numbered);
        1
  in
  let tree_arg =
    let doc = "Reconstruct and print the span tree." in
    Arg.(value & flag & info [ "tree" ] ~doc)
  in
  let doc =
    "Validate an NDJSON trace file (well-formed records, non-decreasing \
     timestamps, depth consistent with begin/end nesting) and optionally \
     print its tree."
  in
  Cmd.v (Cmd.info "trace-check" ~doc)
    Term.(const run $ trace_arg_pos $ tree_arg)

let trace_profile_cmd =
  let run path folded =
    let events = List.map snd (load_trace path) in
    if folded then
      Format.printf "%a" Archex_obs.Profile.pp_folded_events events
    else
      Format.printf "%a" Archex_obs.Profile.pp
        (Archex_obs.Profile.of_events events);
    0
  in
  let folded_arg =
    let doc =
      "Print collapsed (folded) stacks — $(i,stack;path weight) lines \
       consumable by flamegraph tooling (inferno, flamegraph.pl, \
       speedscope) — instead of the profile table.  GC pause time \
       attributed to a stack appears as a $(b,<gc>) leaf frame."
    in
    Arg.(value & flag & info [ "folded" ] ~doc)
  in
  let doc =
    "Aggregate a span trace into a per-span profile (count, total/self \
     time, share of root; GC pause attribution when the trace was \
     recorded with $(b,--runtime-events)) or folded flamegraph stacks."
  in
  Cmd.v (Cmd.info "trace-profile" ~doc)
    Term.(const run $ trace_arg_pos $ folded_arg)

let report_cmd =
  let run path metrics_path out =
    let events = List.map snd (load_trace path) in
    let metrics = Option.map load_json metrics_path in
    let md = Archex_obs.Report.markdown ?metrics events in
    (match out with
    | None -> print_string md
    | Some out_path ->
        let oc = open_out out_path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc md);
        Format.printf "wrote %s@." out_path);
    0
  in
  let metrics_arg =
    let doc = "Metrics snapshot written by $(b,--metrics)." in
    Arg.(value & opt (some file) None
         & info [ "metrics" ] ~doc ~docv:"FILE")
  in
  let out_arg =
    let doc = "Write the report to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let doc =
    "Render a markdown run report (profile, convergence timeline, \
     iteration history, metrics) from a trace."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ trace_arg_pos $ metrics_arg $ out_arg)

(* --time-tol / --count-tol of the regression gate ([bench-diff],
   [runs diff], [trend]), over {!Archex_obs.Bench_compare}'s defaults. *)
let tolerances_arg =
  let module B = Archex_obs.Bench_compare in
  let time_tol =
    let doc = "Relative tolerance for wall-clock series (0.5 = 50%)." in
    Arg.(value
         & opt float B.default_tolerances.B.time_tol
         & info [ "time-tol" ] ~doc ~docv:"REL")
  in
  let count_tol =
    let doc = "Relative tolerance for counter series (0.25 = 25%)." in
    Arg.(value
         & opt float B.default_tolerances.B.count_tol
         & info [ "count-tol" ] ~doc ~docv:"REL")
  in
  Term.(
    const (fun time_tol count_tol ->
        { B.default_tolerances with time_tol; count_tol })
    $ time_tol $ count_tol)

let bench_diff_cmd =
  let run baseline_path current_path tol update_baseline fail_on_new =
    let module B = Archex_obs.Bench_compare in
    let baseline = load_json baseline_path in
    let current = load_json current_path in
    if update_baseline then begin
      (* show what changes, then accept the current run as the new
         baseline — never fails the gate *)
      (match B.diff ~tol ~baseline ~current () with
      | Ok entries -> Format.printf "%a" B.pp_entries entries
      | Error msg -> Format.eprintf "bench-diff: %s@." msg);
      write_json_file baseline_path current;
      Format.printf "bench-diff: baseline %s updated from %s@."
        baseline_path current_path;
      0
    end
    else
      match B.diff ~tol ~baseline ~current () with
      | Error msg ->
          Format.eprintf "bench-diff: %s@." msg;
          2
      | Ok entries ->
          Format.printf "%a" B.pp_entries entries;
          if B.regression entries then begin
            Format.eprintf
              "bench-diff: regression detected (%s vs %s)@." current_path
              baseline_path;
            1
          end
          else if fail_on_new && B.has_new entries then begin
            Format.eprintf
              "bench-diff: series absent from the baseline (%s vs %s); \
               refresh it or drop --fail-on-new@."
              current_path baseline_path;
            1
          end
          else 0
  in
  let pos i docv doc =
    Arg.(required & pos i (some file) None & info [] ~docv ~doc)
  in
  let update_arg =
    let doc =
      "Accept $(i,CURRENT) as the new baseline: print the diff, rewrite \
       $(i,BASELINE) with the current artifact and exit 0.  For legitimate \
       refreshes only (see EXPERIMENTS.md)."
    in
    Arg.(value & flag & info [ "update-baseline" ] ~doc)
  in
  let fail_on_new_arg =
    let doc =
      "Strict mode: also exit 1 when the current artifact carries series \
       absent from the baseline (by default new series are informational, \
       so a freshly added metric can land against an older baseline)."
    in
    Arg.(value & flag & info [ "fail-on-new" ] ~doc)
  in
  let doc =
    "Diff two benchmark artifacts (BENCH_*.json); exit 1 if any series \
     regressed beyond tolerance or vanished."
  in
  Cmd.v (Cmd.info "bench-diff" ~doc)
    Term.(
      const run
      $ pos 0 "BASELINE" "Baseline benchmark artifact."
      $ pos 1 "CURRENT" "Current benchmark artifact."
      $ tolerances_arg $ update_arg $ fail_on_new_arg)

(* Explanation report shared by [explain] and [certify --explain]: the
   last iteration's model (the final one of a synthesized run) against
   its solution, with per-sink reliability margins and learned-constraint
   provenance. *)
let mr_explanation template trace ~r_star =
  match List.rev trace with
  | [] -> None
  | last :: _ ->
      let reliability =
        List.map
          (fun (sink, r) ->
            ( (Archlib.Template.component template sink)
                .Archlib.Component.name,
              r, r_star ))
          last.Archex.Ilp_mr.per_sink
      in
      let learned =
        List.concat_map
          (fun it ->
            List.filter_map
              (fun row ->
                Option.bind
                  (Archex_obs.Json.mem "name" row)
                  Archex_obs.Json.to_str
                |> Option.map (fun name -> (name, it.Archex.Ilp_mr.index)))
              it.Archex.Ilp_mr.learned_rows)
          trace
      in
      Some
        (Archex_explain.markdown ~reliability ~learned
           ~model:last.Archex.Ilp_mr.model
           ~solution:last.Archex.Ilp_mr.solution ())

let cert_out_arg =
  Arg.(value & opt string "cert.json"
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the certificate to $(docv).")

let certify_cmd =
  let run generators r_star strategy obs4 out explain_out node_budget =
    let inst = instance_of generators in
    let template = inst.Eps.Eps_template.template in
    with_obs ~record:("certify", Some (model_hash_of template)) obs4
    @@ fun obs on_event ->
    match
      Archex.Ilp_mr.run ~obs ?on_event ?strategy ~certify:true
        ?cert_node_budget:node_budget template ~r_star
    with
    | Archex.Synthesis.Unfeasible (_, trace, _) ->
        Format.eprintf
          "certify: UNFEASIBLE after %d iteration(s) — nothing to certify@."
          (List.length trace);
        1
    | Archex.Synthesis.Synthesized (_, trace, _) -> (
        match Archex.Ilp_mr.certificate_of_trace ~r_star trace with
        | Error msg ->
            Format.eprintf "certify: %s@." msg;
            1
        | Ok chain -> (
            write_json_file out chain;
            match Archex_cert.check_chain chain with
            | Error msg ->
                Format.eprintf
                  "certify: certificate failed its own check: %s@." msg;
                1
            | Ok s ->
                Format.printf
                  "wrote %s: %d iteration(s), %d tree node(s), final \
                   objective %s; check passed@."
                  out s.Archex_cert.iterations s.Archex_cert.total_tree_nodes
                  (match s.Archex_cert.final_objective with
                  | Some c -> Printf.sprintf "%g" c
                  | None -> "none");
                (match explain_out with
                | None -> 0
                | Some path -> (
                    match mr_explanation template trace ~r_star with
                    | None ->
                        Format.eprintf "certify: empty trace@.";
                        1
                    | Some md ->
                        write_file path md;
                        Format.printf "wrote %s@." path;
                        0))))
  in
  let explain_arg =
    let doc = "Also write the explanation report to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~doc ~docv:"FILE")
  in
  let budget_arg =
    let doc =
      "Node budget per certifying search (default 2,000,000)."
    in
    Arg.(value & opt (some pos_int_conv) None
         & info [ "node-budget" ] ~doc ~docv:"N")
  in
  let doc =
    "Synthesize with ILP-MR, emit the end-to-end optimality certificate \
     chain and re-check it; nonzero exit if synthesis, certification or \
     the check fails."
  in
  Cmd.v (Cmd.info "certify" ~doc)
    Term.(
      const run $ generators_arg $ r_star_arg $ strategy_arg
      $ obs_args $ cert_out_arg $ explain_arg $ budget_arg)

let check_cert_cmd =
  let run path =
    let j = load_json path in
    let module J = Archex_obs.Json in
    match J.mem "format" j with
    | Some (J.Str "archex-cert") -> (
        match Archex_cert.check j with
        | Ok s ->
            Format.printf
              "%s: valid — %s, %d var(s), %d row(s), %d tree node(s)@." path
              (match s.Archex_cert.objective with
              | Some c -> Printf.sprintf "objective %g" c
              | None -> "infeasibility certificate")
              s.Archex_cert.vars s.Archex_cert.rows s.Archex_cert.tree_nodes;
            0
        | Error msg ->
            Format.eprintf "%s: INVALID — %s@." path msg;
            1)
    | Some (J.Str "archex-mr-cert") -> (
        match Archex_cert.check_chain j with
        | Ok s ->
            Format.printf
              "%s: valid — %d iteration(s), %d tree node(s), final \
               objective %s@."
              path s.Archex_cert.iterations s.Archex_cert.total_tree_nodes
              (match s.Archex_cert.final_objective with
              | Some c -> Printf.sprintf "%g" c
              | None -> "none");
            0
        | Error msg ->
            Format.eprintf "%s: INVALID — %s@." path msg;
            1)
    | _ ->
        Format.eprintf
          "%s: not an archex certificate (missing or unknown \
           $(b,format) field)@."
          path;
        2
  in
  let cert_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"CERT"
             ~doc:"Certificate written by $(b,certify).")
  in
  let doc =
    "Re-verify a certificate (single solve or ILP-MR chain) against its \
     embedded model using only linear arithmetic — no solver code."
  in
  Cmd.v (Cmd.info "check-cert" ~doc) Term.(const run $ cert_arg)

let explain_cmd =
  let run generators r_star strategy obs4 out =
    let inst = instance_of generators in
    let template = inst.Eps.Eps_template.template in
    with_obs ~record:("explain", Some (model_hash_of template)) obs4
    @@ fun obs on_event ->
    match Archex.Ilp_mr.run ~obs ?on_event ?strategy template ~r_star with
    | Archex.Synthesis.Unfeasible (_, trace, _) ->
        Format.eprintf
          "explain: UNFEASIBLE after %d iteration(s) — nothing to explain@."
          (List.length trace);
        1
    | Archex.Synthesis.Synthesized (_, trace, _) -> (
        match mr_explanation template trace ~r_star with
        | None ->
            Format.eprintf "explain: empty trace@.";
            1
        | Some md ->
            (match out with
            | None -> print_string md
            | Some path ->
                write_file path md;
                Format.printf "wrote %s@." path);
            0)
  in
  let out_arg =
    let doc = "Write the report to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let doc =
    "Synthesize with ILP-MR and render a human-readable explanation: \
     component cost attribution, binding vs slack constraints, \
     reliability margins and learned-constraint provenance."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ generators_arg $ r_star_arg $ strategy_arg
      $ obs_args $ out_arg)

let trace_export_cmd =
  let run path chrome out =
    if not chrome then begin
      Format.eprintf
        "trace-export: no output format selected (use $(b,--chrome))@.";
      2
    end
    else begin
      let events = List.map snd (load_trace path) in
      let j = Archex_obs.Chrome_trace.of_events events in
      (match out with
      | None -> print_string (Archex_obs.Json.to_string j ^ "\n")
      | Some p ->
          write_json_file p j;
          Format.printf "wrote %s (%d trace events)@." p
            (List.length events));
      0
    end
  in
  let chrome_arg =
    let doc =
      "Export in Chrome trace-event JSON (load in Perfetto or \
       chrome://tracing)."
    in
    Arg.(value & flag & info [ "chrome" ] ~doc)
  in
  let out_arg =
    let doc = "Write the converted trace to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let doc =
    "Convert an NDJSON span trace into another tooling format \
     (currently Chrome trace-event JSON)."
  in
  Cmd.v (Cmd.info "trace-export" ~doc)
    Term.(const run $ trace_arg_pos $ chrome_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* Run registry commands                                               *)

module Reg = Archex_obs.Run_registry

(* Surface — rather than silently drop — run directories that don't
   load, e.g. a run killed before its meta.json commit point. *)
let reg_warn msg = Format.eprintf "archex runs: skipping %s@." msg

let runs_root_arg =
  let doc =
    "Registry root (default $(b,_archex/runs), or $(b,ARCHEX_RUNS_DIR) \
     when set)."
  in
  Arg.(value & opt (some string) None & info [ "root" ] ~doc ~docv:"DIR")

let pp_epoch ppf t =
  let tm = Unix.localtime t in
  Format.fprintf ppf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let runs_list_cmd =
  let run root last =
    match Reg.list_recent ?root ~warn:reg_warn ?last () with
    | Error msg ->
        Format.eprintf "runs list: %s@." msg;
        2
    | Ok [] ->
        Format.printf "no recorded runs@.";
        0
    | Ok metas ->
        Format.printf "%-12s  %-19s  %-8s  %9s  %s@." "ID" "STARTED"
          "COMMAND" "WALL" "VERDICT";
        List.iter
          (fun m ->
            Format.printf "%-12s  %a  %-8s  %8.2fs  %s@." m.Reg.id pp_epoch
              m.Reg.started m.Reg.command m.Reg.wall_s m.Reg.verdict)
          metas;
        0
  in
  let last_arg =
    let doc = "Show only the $(docv) most recent runs." in
    Arg.(value & opt (some int) None & info [ "last" ] ~doc ~docv:"N")
  in
  let doc = "List recorded runs, newest first." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ runs_root_arg $ last_arg)

let run_id_pos i docv =
  Arg.(required & pos i (some string) None
       & info [] ~docv ~doc:"Run id (or unique prefix).")

let runs_show_cmd =
  let run root id =
    match Reg.load ?root ~warn:reg_warn id with
    | Error msg ->
        Format.eprintf "runs show: %s@." msg;
        2
    | Ok m ->
        Format.printf "run %s@." m.Reg.id;
        Format.printf "  command   %s@." m.Reg.command;
        Format.printf "  argv      %s@." (String.concat " " m.Reg.argv);
        Format.printf "  started   %a@." pp_epoch m.Reg.started;
        Format.printf "  wall      %.3fs@." m.Reg.wall_s;
        Format.printf "  exit      %d (%s)@." m.Reg.exit_code m.Reg.verdict;
        (match m.Reg.model_hash with
        | Some h -> Format.printf "  model     %s@." h
        | None -> ());
        (match m.Reg.artifacts with
        | [] -> ()
        | files ->
            Format.printf "  artifacts %s@." (String.concat ", " files));
        Format.printf "  series@.";
        List.iter
          (fun (name, v) -> Format.printf "    %-32s %g@." name v)
          m.Reg.series;
        0
  in
  let doc = "Show one recorded run: identity, verdict, series, artifacts." in
  Cmd.v (Cmd.info "show" ~doc)
    Term.(const run $ runs_root_arg $ run_id_pos 0 "RUN")

let runs_diff_cmd =
  let run root base_id cur_id tol fail_on_new =
    let module B = Archex_obs.Bench_compare in
    match
      (Reg.load ?root ~warn:reg_warn base_id,
       Reg.load ?root ~warn:reg_warn cur_id)
    with
    | Error msg, _ | _, Error msg ->
        Format.eprintf "runs diff: %s@." msg;
        2
    | Ok base, Ok cur -> (
        if base.Reg.command <> cur.Reg.command then
          Format.eprintf
            "runs diff: warning: comparing a %s run against a %s run@."
            cur.Reg.command base.Reg.command;
        (match (base.Reg.model_hash, cur.Reg.model_hash) with
        | Some a, Some b when a <> b ->
            Format.eprintf
              "runs diff: warning: runs solved different models@."
        | _ -> ());
        match
          B.diff ~tol
            ~baseline:(Reg.bench_artifact base)
            ~current:(Reg.bench_artifact cur)
            ()
        with
        | Error msg ->
            Format.eprintf "runs diff: %s@." msg;
            2
        | Ok entries ->
            Format.printf "%a" B.pp_entries entries;
            if B.regression entries then begin
              Format.eprintf "runs diff: %s regressed against %s@."
                cur.Reg.id base.Reg.id;
              1
            end
            else if fail_on_new && B.has_new entries then begin
              Format.eprintf
                "runs diff: %s carries series %s never recorded@."
                cur.Reg.id base.Reg.id;
              1
            end
            else 0)
  in
  let fail_on_new_arg =
    let doc =
      "Strict mode: also exit 1 when the current run carries series \
       absent from the baseline run."
    in
    Arg.(value & flag & info [ "fail-on-new" ] ~doc)
  in
  let doc =
    "Diff two recorded runs with the benchmark regression gate \
     (tolerance-classified series comparison); exit 1 on regression."
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const run $ runs_root_arg $ run_id_pos 0 "BASELINE"
      $ run_id_pos 1 "CURRENT" $ tolerances_arg $ fail_on_new_arg)

let runs_cmd =
  let doc =
    "Inspect the persistent run registry (see $(b,--no-record) and \
     $(b,ARCHEX_RUNS_DIR))."
  in
  Cmd.group (Cmd.info "runs" ~doc)
    [ runs_list_cmd; runs_show_cmd; runs_diff_cmd ]

(* ------------------------------------------------------------------ *)
(* archex trend — regression verdict over registry history             *)

let trend_cmd =
  let run root series last command model tol json out =
    match
      Reg.list_recent ?root ~warn:reg_warn ?command ?model_hash:model ~last ()
    with
    | Error msg ->
        Format.eprintf "trend: %s@." msg;
        2
    | Ok [] ->
        Format.eprintf "trend: no matching runs in the registry@.";
        2
    | Ok runs ->
        let series = if series = [] then [ "wall_s" ] else series in
        let t = Archex_obs.Trend.analyze ~tol ~series runs in
        let rendered =
          if json then
            Archex_obs.Json.to_string (Archex_obs.Trend.to_json t) ^ "\n"
          else Archex_obs.Trend.to_markdown t
        in
        (match out with
        | None -> print_string rendered
        | Some path ->
            write_file path rendered;
            Format.printf "wrote %s@." path);
        if Archex_obs.Trend.regression t then begin
          Format.eprintf "trend: regression detected over %d run(s)@."
            t.Archex_obs.Trend.runs;
          1
        end
        else 0
  in
  let series_arg =
    let doc =
      "Series to analyze (repeatable), e.g. $(b,wall_s), \
       $(b,mr.total_seconds), $(b,gc.pause_seconds_sum).  Default: \
       $(b,wall_s)."
    in
    Arg.(value & opt_all string [] & info [ "series" ] ~doc ~docv:"NAME")
  in
  let last_arg =
    let doc = "Analysis window: the $(docv) most recent matching runs." in
    Arg.(value & opt int 10 & info [ "last" ] ~doc ~docv:"N")
  in
  let command_arg =
    let doc = "Only runs of this subcommand (e.g. $(b,mr))." in
    Arg.(value & opt (some string) None
         & info [ "command" ] ~doc ~docv:"CMD")
  in
  let model_arg =
    let doc =
      "Only runs whose model hash equals $(docv) — compare like against \
       like (see $(b,runs show))."
    in
    Arg.(value & opt (some string) None & info [ "model" ] ~doc ~docv:"MD5")
  in
  let json_arg =
    let doc = "Emit the analysis as JSON instead of markdown." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let out_arg =
    let doc = "Write the analysis to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let doc =
    "Trend analysis over registry history: each series' latest value is \
     judged against the median of its prior runs (the regression gate's \
     tolerances), plus a two-segment changepoint scan; exit 1 when any \
     series regressed."
  in
  Cmd.v (Cmd.info "trend" ~doc)
    Term.(
      const run $ runs_root_arg $ series_arg $ last_arg $ command_arg
      $ model_arg $ tolerances_arg $ json_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* archex top — terminal dashboard over a --metrics-stream file        *)

module Top = struct
  module J = Archex_obs.Json

  type sample = {
    elapsed : float;
    metrics : (string * J.t) list;
  }

  let sample_of_json j =
    match (J.mem "elapsed" j, J.mem "metrics" j) with
    | Some (J.Num elapsed), Some (J.Obj metrics) -> Some { elapsed; metrics }
    | _ -> None

  (* Last well-formed sample (and how many there were) in the stream.
     The writer may be mid-line when we read — the relaxed parse skips
     the partial tail (or any torn line) instead of rejecting the whole
     stream, so live rendering never goes blank during a write. *)
  let load path =
    if not (Sys.file_exists path) then (None, 0)
    else begin
      let lines, _partial =
        Archex_obs.Json.parse_lines_relaxed (read_whole_file path)
      in
      let samples = List.filter_map sample_of_json lines in
      match List.rev samples with
      | last :: _ -> (Some last, List.length samples)
      | [] -> (None, 0)
    end

  let num s name =
    match List.assoc_opt name s.metrics with
    | Some (J.Num x) -> Some x
    | _ -> None

  let hist_field s name field =
    match List.assoc_opt name s.metrics with
    | Some (J.Obj h) -> (
        match List.assoc_opt field h with
        | Some (J.Num x) -> Some x
        | _ -> None)
    | _ -> None

  (* "pool.worker_busy_seconds{domain=\"0\"}" -> (0, seconds) *)
  let worker_busy s =
    let prefix = "pool.worker_busy_seconds{domain=\"" in
    List.filter_map
      (fun (name, v) ->
        if String.starts_with ~prefix name then
          match v with
          | J.Num busy -> (
              let rest =
                String.sub name (String.length prefix)
                  (String.length name - String.length prefix)
              in
              match String.index_opt rest '"' with
              | Some q -> (
                  match int_of_string_opt (String.sub rest 0 q) with
                  | Some d -> Some (d, busy)
                  | None -> None)
              | None -> None)
          | _ -> None
        else None)
      s.metrics
    |> List.sort compare

  let bar ?(width = 24) frac =
    (* a first sample can carry elapsed = 0, making callers' ratios nan
       or inf; render those as an empty bar instead of crashing
       String.make with a negative or huge count *)
    let frac = if Float.is_nan frac then 0. else frac in
    let frac = Float.min 1. (Float.max 0. frac) in
    let full = int_of_float (Float.round (frac *. float_of_int width)) in
    String.concat ""
      [ "["; String.make full '#'; String.make (width - full) '-'; "]" ]

  let render ppf path n s =
    let line fmt = Format.fprintf ppf (fmt ^^ "@.") in
    line "archex top — %s (sample %d, elapsed %.1fs)" path n s.elapsed;
    line "";
    (match num s "pool.size" with
    | Some size ->
        line "pool     %d domain(s)   queue %g   busy %g"
          (int_of_float size)
          (Option.value (num s "pool.queue_depth") ~default:0.)
          (Option.value (num s "pool.workers_busy") ~default:0.)
    | None -> line "pool     (no pool metrics yet)");
    List.iter
      (fun (d, busy) ->
        let util = if s.elapsed > 0. then busy /. s.elapsed else 0. in
        line "  dom %-3d %s %3.0f%%  %.2fs busy" d (bar util)
          (100. *. util) busy)
      (worker_busy s);
    (match
       ( num s "pool.jobs_enqueued",
         num s "pool.jobs_started",
         num s "pool.jobs_finished" )
     with
    | Some e, Some st, Some f ->
        line "jobs     enqueued %g   started %g   finished %g" e st f
    | _ -> ());
    (match
       ( hist_field s "pool.job_seconds" "p50",
         hist_field s "pool.job_seconds" "p99" )
     with
    | Some p50, Some p99 ->
        line "job time p50 %.1fms   p99 %.1fms" (1e3 *. p50) (1e3 *. p99)
    | _ -> ());
    line "";
    (match (num s "progress.incumbent", num s "progress.bound") with
    | Some inc, Some bound ->
        let gap =
          100. *. (inc -. bound) /. Float.max 1e-9 (Float.abs inc)
        in
        line "search   incumbent %g   bound %g   gap %.2f%%" inc bound gap
    | Some inc, None -> line "search   incumbent %g" inc
    | None, Some bound -> line "search   bound %g" bound
    | None, None -> ());
    (match num s "progress.iteration" with
    | Some it ->
        line "mr       iteration %g%s" it
          (match num s "progress.cost" with
          | Some c -> Printf.sprintf "   cost %g" c
          | None -> "")
    | None -> ());
    (* daemon state, present when the stream comes from archex serve *)
    (match num s "serve.queue_depth" with
    | Some q ->
        let c name = Option.value (num s ("serve." ^ name)) ~default:0. in
        line
          "serve    queue %g   accepted %g   rejected %g   degraded %g"
          q (c "accepted") (c "rejected") (c "degraded");
        line
          "         retries %g   dead-letter %g   interrupted %g   done %g"
          (c "retries") (c "dead_letter") (c "interrupted")
          (c "completed");
        (match
           ( hist_field s "serve.run_seconds" "p50",
             hist_field s "serve.run_seconds" "p99" )
         with
        | Some p50, Some p99 ->
            line "         run p50 %.1fms   p99 %.1fms" (1e3 *. p50)
              (1e3 *. p99)
        | _ -> ())
    | None -> ());
    match num s "budget.deadline_seconds" with
    | Some d when d > 0. ->
        let used = s.elapsed /. d in
        line "budget   %s %3.0f%%  %.1fs of %.0fs deadline" (bar used)
          (100. *. used) s.elapsed d
    | _ -> ()
end

let top_cmd =
  let run path once interval =
    if once then begin
      match Top.load path with
      | Some s, n ->
          Top.render Format.std_formatter path n s;
          0
      | None, _ ->
          Format.eprintf "top: %s has no samples yet@." path;
          1
    end
    else begin
      (* live mode: re-read the stream every tick until interrupted —
         the first SIGINT/SIGTERM ends the loop cleanly (exit 0: being
         told to stop watching is not a failure) *)
      install_interrupt_handlers ();
      let rec loop () =
        if Atomic.get interrupted then 0
        else begin
          print_string "\027[2J\027[H";
          (match Top.load path with
          | Some s, n -> Top.render Format.std_formatter path n s
          | None, _ ->
              Format.printf "archex top — %s: waiting for samples@." path);
          Format.print_flush ();
          Unix.sleepf interval;
          loop ()
        end
      in
      loop ()
    end
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"STREAM"
             ~doc:"NDJSON sample stream written by $(b,--metrics-stream).")
  in
  let once_arg =
    let doc =
      "Render the latest sample once and exit (snapshot mode for CI)."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let interval_arg =
    let doc = "Refresh interval in seconds (live mode)." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~doc ~docv:"SECONDS")
  in
  let doc =
    "Live terminal dashboard over a $(b,--metrics-stream) file: \
     per-domain utilization, queue depth, incumbent/bound gap, iteration \
     progress and budget consumption."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ path_arg $ once_arg $ interval_arg)

(* ------------------------------------------------------------------ *)
(* archex serve — crash-safe synthesis job daemon                      *)

let serve_cmd =
  let run obs3 res dir socket capacity watermark max_gen tight pool_jobs
      max_attempts backoff_base backoff_cap default_deadline degraded_bdd =
    install_interrupt_handlers ();
    (* first signal: stop admitting, cancel in-flight via tokens, flush
       the journal; second signal: hard exit *)
    interrupt_hook := Archex_serve.Server.request_drain;
    let config =
      { Archex_serve.Engine.default_config with
        admission =
          { Archex_serve.Admission.capacity;
            shed_watermark = watermark;
            max_generators = max_gen;
            tight_deadline_s = tight };
        pool_jobs;
        max_attempts;
        backoff_base_s = backoff_base;
        backoff_cap_s = backoff_cap;
        default_deadline_s =
          (if default_deadline <= 0. then None else Some default_deadline);
        degraded_bdd_limit = degraded_bdd }
    in
    (match Archex_serve.Engine.validate_config config with
    | Ok () -> ()
    | Error msg ->
        Format.eprintf "archex serve: %s@." msg;
        exit exit_invalid);
    with_obs ~record:("serve", None) obs3 @@ fun obs _on_event ->
    with_faults res @@ fun () ->
    match socket with
    | Some path ->
        Archex_serve.Server.serve_socket ~obs ~config ~dir path
    | None -> Archex_serve.Server.serve_pipe ~obs ~config ~dir stdin stdout
  in
  let dir_arg =
    let doc =
      "Daemon state directory: the crash-safe job journal lives at \
       $(docv)/journal.ndjson.  Restarting with the same directory \
       requeues accepted jobs and retries interrupted ones."
    in
    Arg.(value & opt string "_archex/serve"
         & info [ "dir" ] ~doc ~docv:"DIR")
  in
  let socket_arg =
    let doc =
      "Listen on a Unix domain socket at $(docv) instead of serving \
       stdin/stdout (pipe mode)."
    in
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~doc ~docv:"PATH")
  in
  let capacity_arg =
    let doc = "Admission queue capacity; at capacity, jobs are rejected \
               with the typed reason $(b,queue-full)." in
    Arg.(value & opt int Archex_serve.Admission.default.capacity
         & info [ "capacity" ] ~doc ~docv:"N")
  in
  let watermark_arg =
    let doc =
      "Fraction of capacity above which new jobs are admitted \
       $(i,degraded): they run with a tiny BDD ceiling, so reliability \
       degrades to cut-set bounds / Monte-Carlo instead of queueing \
       unboundedly."
    in
    Arg.(value & opt float Archex_serve.Admission.default.shed_watermark
         & info [ "shed-watermark" ] ~doc ~docv:"F")
  in
  let max_gen_arg =
    let doc = "Largest scaling-family instance served; bigger jobs are \
               rejected with $(b,too-large)." in
    Arg.(value & opt int Archex_serve.Admission.default.max_generators
         & info [ "max-generators" ] ~doc ~docv:"G")
  in
  let tight_arg =
    let doc = "Requested deadlines below $(docv) seconds admit the job \
               degraded (it cannot finish exactly)." in
    Arg.(value
         & opt float Archex_serve.Admission.default.tight_deadline_s
         & info [ "tight-deadline" ] ~doc ~docv:"S")
  in
  let pool_jobs_arg =
    let doc = "Worker domains executing jobs (a dedicated pool; the \
               main domain only schedules)." in
    Arg.(value & opt int Archex_serve.Engine.default_config.pool_jobs
         & info [ "pool-jobs" ] ~doc ~docv:"N")
  in
  let max_attempts_arg =
    let doc =
      "Attempts per job: retryable failures (injected crashes, budget \
       exhaustion with deadline left) are re-admitted under \
       decorrelated-jitter backoff until this cap, then dead-lettered."
    in
    Arg.(value & opt int Archex_serve.Engine.default_config.max_attempts
         & info [ "max-attempts" ] ~doc ~docv:"N")
  in
  let backoff_base_arg =
    let doc = "Smallest retry backoff delay, seconds." in
    Arg.(value
         & opt float Archex_serve.Engine.default_config.backoff_base_s
         & info [ "backoff-base" ] ~doc ~docv:"S")
  in
  let backoff_cap_arg =
    let doc = "Largest retry backoff delay, seconds." in
    Arg.(value
         & opt float Archex_serve.Engine.default_config.backoff_cap_s
         & info [ "backoff-cap" ] ~doc ~docv:"S")
  in
  let default_deadline_arg =
    let doc =
      "Deadline given to jobs that request none, seconds (0 = \
       unlimited).  Retries of a job slice from its original deadline."
    in
    Arg.(value & opt float 300.
         & info [ "default-deadline" ] ~doc ~docv:"S")
  in
  let degraded_bdd_arg =
    let doc =
      "BDD node ceiling imposed on degraded admissions — small enough \
       to force the reliability ladder down to bounds / sampling."
    in
    Arg.(value
         & opt int Archex_serve.Engine.default_config.degraded_bdd_limit
         & info [ "degraded-bdd-limit" ] ~doc ~docv:"N")
  in
  let doc =
    "Run the synthesis job daemon: line-JSON jobs in, NDJSON events \
     out, with admission control, load-shedding degradation, seeded \
     retry/backoff, a crash-safe journal and graceful drain on \
     SIGTERM/SIGINT."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ obs_args $ resilience_args $ dir_arg $ socket_arg
      $ capacity_arg $ watermark_arg $ max_gen_arg $ tight_arg
      $ pool_jobs_arg $ max_attempts_arg $ backoff_base_arg
      $ backoff_cap_arg $ default_deadline_arg $ degraded_bdd_arg)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let doc =
    "optimized selection of reliable and cost-effective CPS architectures \
     (Bajaj et al., DATE 2015)"
  in
  let info = Cmd.info "archex" ~version:"1.0.0" ~doc in
  (* bare [archex --trace t.ndjson] runs the default ILP-MR synthesis *)
  exit
    (Cmd.eval'
       (Cmd.group ~default:mr_term info
          [ mr_cmd; ar_cmd; analyze_cmd; inspect_cmd; export_cmd;
            certify_cmd; check_cert_cmd; explain_cmd; trace_check_cmd;
            trace_profile_cmd; trace_export_cmd; report_cmd; bench_diff_cmd;
            runs_cmd; trend_cmd; top_cmd; serve_cmd ]))
