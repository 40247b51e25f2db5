module B = Archex_resilience.Budget
module Error = Archex_resilience.Error
module Faults = Archex_resilience.Faults

type outcome = {
  status : string;
  verdict : string;
  cost : float option;
  reliability : float option;
  iterations : int option;
  error : Error.t option;
}

let instance_of = function
  | None -> Eps.Eps_template.base ()
  | Some g -> Eps.Eps_template.make ~generators:g

(* The worst ladder rung across the report's per-sink verdicts: the one
   figure a client can trust the least. *)
let verdict_of_report (report : Archex.Rel_analysis.report) =
  let rank v =
    match v with
    | Archex_resilience.Verdict.Exact _ -> 0
    | Archex_resilience.Verdict.Bounded _ -> 1
    | Archex_resilience.Verdict.Sampled _ -> 2
  in
  match report.Archex.Rel_analysis.verdicts with
  | [] -> "exact"
  | (_, v0) :: rest ->
      let worst =
        List.fold_left
          (fun acc (_, v) -> if rank v > rank acc then v else acc)
          v0 rest
      in
      Archex_resilience.Verdict.method_name worst

(* Which rung produced the answer: re-analyze the final configuration
   under the job's BDD ceiling (deadline-free — the verdict should name
   the degradation mode the job ran in, not whatever time was left at
   the finish line). *)
let verdict_of_config ?obs ~budget template config =
  let verdict_budget =
    match B.bdd_node_limit budget with
    | None -> B.unlimited
    | Some n -> B.create ~max_bdd_nodes:n ()
  in
  let report =
    Archex.Rel_analysis.analyze ?obs ~budget:verdict_budget template config
  in
  verdict_of_report report

let failed error =
  { status = "failed";
    verdict = "none";
    cost = None;
    reliability = None;
    iterations = None;
    error = Some error }

let of_unfeasible reason n_iterations =
  let error, status =
    match reason with
    | Archex.Synthesis.Budget_exhausted { error; _ } ->
        (Some error, "exhausted")
    | _ -> (None, "unfeasible")
  in
  { status;
    verdict = "none";
    cost = None;
    reliability = None;
    iterations = n_iterations;
    error }

let of_architecture ?obs ~budget ~iterations template
    (arch : Archex.Synthesis.architecture) =
  { status = "ok";
    verdict =
      verdict_of_config ?obs ~budget template arch.Archex.Synthesis.config;
    cost = Some arch.Archex.Synthesis.cost;
    reliability = Some arch.Archex.Synthesis.reliability;
    iterations;
    error = None }

let run ?obs ?on_event ~budget (job : Protocol.job) =
  if Faults.probe Faults.Job_crash then
    failed
      (Error.Internal { stage = "serve.run"; detail = "injected: job-crash" })
  else
    match
      Error.guard ~stage:"serve.run" @@ fun () ->
      let inst = instance_of job.Protocol.generators in
      let template = inst.Eps.Eps_template.template in
      match job.Protocol.op with
      | Protocol.Mr -> (
          match
            Archex.Ilp_mr.run ?obs ?on_event ~budget ~jobs:job.Protocol.jobs
              template ~r_star:job.Protocol.r_star
          with
          | Archex.Synthesis.Synthesized (arch, trace, _) ->
              of_architecture ?obs ~budget
                ~iterations:(Some (List.length trace))
                template arch
          | Archex.Synthesis.Unfeasible (reason, trace, _) ->
              of_unfeasible reason (Some (List.length trace)))
      | Protocol.Ar -> (
          match
            Archex.Ilp_ar.run ?obs ?on_event ~budget ~jobs:job.Protocol.jobs
              template ~r_star:job.Protocol.r_star
          with
          | Archex.Synthesis.Synthesized (arch, _, _) ->
              of_architecture ?obs ~budget ~iterations:None template arch
          | Archex.Synthesis.Unfeasible (reason, _, _) ->
              of_unfeasible reason None)
      | Protocol.Analyze ->
          let config =
            Archlib.Template.config_of_edges template
              (Archlib.Template.candidate_edges template)
          in
          let report =
            Archex.Rel_analysis.analyze ?obs ?on_event ~budget
              ~jobs:job.Protocol.jobs template config
          in
          { status = "ok";
            verdict = verdict_of_report report;
            cost =
              Some (Archlib.Template.configuration_cost template config);
            reliability = Some report.Archex.Rel_analysis.worst;
            iterations = None;
            error = None }
    with
    | Ok outcome -> outcome
    | Error e -> failed e

let retryable outcome ~remaining_s ~floor_s =
  match outcome.error with
  | None -> false
  | Some (Error.Internal { detail; _ }) ->
      String.starts_with ~prefix:"injected:" detail
  | Some e -> Error.is_budget e && remaining_s > floor_s
