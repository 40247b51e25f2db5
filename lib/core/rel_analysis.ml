module Template = Archlib.Template
module Verdict = Archex_resilience.Verdict
module Faults = Archex_resilience.Faults
module Budget = Archex_resilience.Budget

type report = {
  per_sink : (int * float) list;
  worst : float;
  elapsed : float;
  verdicts : (int * Verdict.t) list;
  degraded : int;
}

(* Sampling rung of the degradation ladder: fixed trial count and the
   library's fixed default seed, so a degraded analysis is reproducible. *)
let mc_trials = 20_000

let fail_model_of_config template config =
  let expanded = Template.expand_redundant_pairs template config in
  let node_fail =
    Array.init (Template.node_count template) (fun v ->
        (Template.component template v).Archlib.Component.fail_prob)
  in
  Reliability.Fail_model.make expanded
    ~sources:(Template.sources template)
    ~node_fail

let analyze ?(obs = Archex_obs.Ctx.null) ?on_event ?engine ?budget
    ?(jobs = 1) ?pool template config =
  if jobs < 1 then invalid_arg "Rel_analysis.analyze: jobs must be positive";
  let t0 = Archex_obs.Clock.now () in
  let trace = Archex_obs.Ctx.trace obs in
  let metrics = Archex_obs.Ctx.metrics obs in
  let bdd_node_limit = Option.bind budget Budget.bdd_node_limit in
  let report =
    Archex_obs.Trace.with_span trace "reliability" (fun () ->
        let net = fail_model_of_config template config in
        let sinks = Template.sinks template in
        let fallback ~sink ~rung =
          Archex_obs.Trace.instant
            ~attrs:
              (if Archex_obs.Trace.enabled trace then
                 [ ("sink", Archex_obs.Json.Num (float_of_int sink));
                   ("to", Archex_obs.Json.Str rung) ]
               else [])
            trace "fallback";
          if Archex_obs.Metrics.enabled metrics then
            Archex_obs.Metrics.incr
              (Archex_obs.Metrics.counter metrics "rel.fallbacks");
          match on_event with
          | None -> ()
          | Some f ->
              f
                { Archex_obs.Event.source = "rel-analysis";
                  kind = Archex_obs.Event.Fallback;
                  elapsed = Archex_obs.Clock.now () -. t0;
                  data = [ ("sink", float_of_int sink) ] }
        in
        let parallel =
          (match pool with
          | Some p -> Archex_parallel.Pool.jobs p > 1
          | None -> jobs > 1)
          && List.length sinks > 1
        in
        (* Fault probes advance global plan state: draw them on this
           domain, in sink order, before any fan-out, so an injected
           fault plan hits the same sinks at any [jobs]. *)
        let probed =
          List.map (fun s -> (s, Faults.probe Faults.Oracle_failure)) sinks
        in
        (* In parallel mode the per-sink oracles get a metrics-only ctx:
           metric handles are atomic and the tracer is domain-safe, but
           the analysis trace is kept deterministic — fallback
           instants/events are emitted after the join, in sink order.
           The pool itself still gets the full ctx: its pool.job spans
           carry the per-domain scheduling picture without touching the
           oracle-level trace. *)
        let task_obs =
          if parallel then Archex_obs.Ctx.make ~metrics () else obs
        in
        (* The ladder: exact BDD analysis (one fresh BDD manager inside
           each call, hence one per domain), then unpruned cut-set bounds,
           then a seeded Monte-Carlo interval.  Each rung only runs when
           the one above blew its capacity (or an Oracle_failure fault is
           injected in its place). *)
        let sink_verdict (sink, injected) =
          let rungs = ref [] in
          let note rung = rungs := rung :: !rungs in
          let exact_result =
            if injected then
              Error
                (Archex_resilience.Error.Bdd_blowup
                   { stage = "reliability.sink (injected)";
                     nodes = 0;
                     limit = 0 })
            else
              Reliability.Exact.sink_failure_checked ~obs:task_obs ?engine
                ?bdd_node_limit net ~sink
          in
          let verdict =
            match exact_result with
            | Ok r -> Verdict.exact r
            | Error _ -> (
                note "bounded";
                match
                  Reliability.Cut_sets.cut_bounds ~obs:task_obs
                    ?bdd_max_nodes:bdd_node_limit net ~sink
                with
                | lo, hi -> Verdict.bounded ~lo ~hi
                | exception Reliability.Bdd.Node_limit _ ->
                    note "sampled";
                    let est =
                      Reliability.Monte_carlo.estimate_sink_failure
                        ~trials:mc_trials net ~sink
                    in
                    let lo, hi =
                      Reliability.Monte_carlo.confidence_interval est
                    in
                    Verdict.sampled ~lo ~hi)
          in
          (sink, verdict, List.rev !rungs)
        in
        let results =
          if parallel then
            match pool with
            | Some p -> Archex_parallel.Pool.map p sink_verdict probed
            | None ->
                Archex_parallel.Pool.with_pool ~obs
                  ~jobs:(min jobs (List.length sinks))
                  (fun p -> Archex_parallel.Pool.map p sink_verdict probed)
          else List.map sink_verdict probed
        in
        List.iter
          (fun (sink, _, rungs) ->
            List.iter (fun rung -> fallback ~sink ~rung) rungs)
          results;
        let verdicts = List.map (fun (s, v, _) -> (s, v)) results in
        let per_sink =
          List.map (fun (s, v) -> (s, Verdict.upper v)) verdicts
        in
        let worst =
          List.fold_left (fun acc (_, r) -> Float.max acc r) 0. per_sink
        in
        let degraded =
          List.length
            (List.filter (fun (_, v) -> not (Verdict.is_exact v)) verdicts)
        in
        { per_sink; worst; elapsed = 0.; verdicts; degraded })
  in
  let elapsed = Archex_obs.Clock.now () -. t0 in
  if Archex_obs.Metrics.enabled metrics then begin
    Archex_obs.Metrics.incr
      (Archex_obs.Metrics.counter metrics "rel.analyses");
    Archex_obs.Metrics.observe
      (Archex_obs.Metrics.histogram metrics "rel.seconds")
      elapsed
  end;
  { report with elapsed }

let meets report ~r_star = report.worst <= r_star +. 1e-15
let is_exact report = report.degraded = 0
