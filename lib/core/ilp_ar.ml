module Digraph = Netgraph.Digraph
module Partition = Netgraph.Partition
module Template = Archlib.Template
module Model = Milp.Model
module Lin_expr = Milp.Lin_expr
module Bool_encode = Milp.Bool_encode

type info = {
  approx_estimate : float;
  theorem2_bound : float;
  constraint_count : int;
  variable_count : int;
  cert : (Archex_obs.Json.t, string) result option;
}

(* Chain bookkeeping: 1-based position of each chain type. *)
let chain_of template =
  match Template.type_chain template with
  | Some (_ :: _ as chain) -> chain
  | Some [] | None ->
      invalid_arg "Ilp_ar: template must declare a type chain"

let position chain ty =
  let rec find i = function
    | [] -> None
    | t :: rest -> if t = ty then Some i else find (i + 1) rest
  in
  find 1 chain

(* Per-type failure probability, uniform across members (paper premise). *)
let type_fail template partition ty =
  Reliability.Approx.uniform_type_fail partition
    ~node_fail:(fun v ->
      (Template.component template v).Archlib.Component.fail_prob)
    ty

let compile ?(obs = Archex_obs.Ctx.null) template ~r_star =
  Archex_obs.Trace.with_span (Archex_obs.Ctx.trace obs) "compile"
  @@ fun () ->
  let enc = Gen_ilp.encode ~obs template in
  let st = Learn_cons.init ~obs enc in
  let model = Gen_ilp.model enc in
  let partition = Template.partition template in
  let chain = chain_of template in
  let n_chain = List.length chain in
  let encode_sink sink =
    let sink_ty = Partition.type_of partition sink in
    let sink_fail =
      (Template.component template sink).Archlib.Component.fail_prob
    in
    (* contribution of one chain type: Σ_k k · p_j^k · x_ijk over the
       counting channel of "member is on a source→sink walk" indicators *)
    let type_contribution ty =
      let idx =
        match position chain ty with
        | Some i -> i
        | None -> invalid_arg "Ilp_ar: sink type outside the chain"
      in
      (* exact layered depths: a walk from chain position idx to the sink
         crosses n - idx edges; from a source to position idx, idx - 1 *)
      let depth_to_sink = max 1 (n_chain - idx) in
      let depth_from_source = max 0 (idx - 1) in
      let p = type_fail template partition ty in
      let member_indicator w =
        match Learn_cons.reach_var st ~sink ~depth:depth_to_sink w with
        | None -> None
        | Some to_sink -> (
            match
              Learn_cons.source_connection_var st ~depth:depth_from_source w
            with
            | None -> None
            | Some from_src ->
                if from_src = to_sink then Some to_sink
                else
                  Some
                    (Bool_encode.and_var
                       ~name:(Printf.sprintf "onpath_%d_s%d" w sink)
                       model [ to_sink; from_src ]))
      in
      let members =
        List.filter (fun w -> w <> sink) (Partition.members partition ty)
      in
      let indicators = List.filter_map member_indicator members in
      let channel =
        Bool_encode.count_channel
          ~prefix:(Printf.sprintf "h_s%d_t%d" sink ty)
          model indicators
      in
      (* Eq. 10 restricted to k ≥ 1: the sink must be served through every
         chain type, so h = 0 is forbidden (connectivity, not vacuous
         satisfaction of Eq. 9). *)
      Model.fix model channel.(0) 0.;
      (* a term k·p^k alone above r* already violates Eq. 9: fix those
         selectors to 0.  The smallest admissible k is then a static
         minimum redundancy degree, stated over the cost-bearing variables
         so the objective bound sees it. *)
      let k_min =
        let admissible k =
          float_of_int k *. (p ** float_of_int k) <= r_star +. 1e-300
        in
        let rec find k =
          if k >= Array.length channel then Array.length channel
          else if admissible k then k
          else begin
            Model.fix model channel.(k) 0.;
            find (k + 1)
          end
        in
        find 1
      in
      if k_min > 1 && k_min < Array.length channel then begin
        let deltas =
          List.filter_map (fun w -> Gen_ilp.delta_var enc w) members
        in
        if List.length deltas >= k_min then
          Bool_encode.at_least_k
            ~name:(Printf.sprintf "kmin_use_s%d_t%d" sink ty)
            model deltas k_min;
        let candidate = Template.candidate_graph template in
        let out_edges =
          List.concat_map
            (fun w ->
              List.filter_map
                (fun m -> Gen_ilp.edge_var_opt enc w m)
                (Digraph.succ candidate w))
            members
        in
        if List.length out_edges >= k_min then
          Bool_encode.at_least_k
            ~name:(Printf.sprintf "kmin_edge_s%d_t%d" sink ty)
            model out_edges k_min;
        Bool_encode.at_least_k
          ~name:(Printf.sprintf "kmin_ind_s%d_t%d" sink ty)
          model indicators k_min
      end;
      (* valid usage cut: h_ij = k on-path components of type j means at
         least k instantiated components — over the cost-bearing δs, so the
         objective bound prunes directly *)
      let deltas =
        List.filter_map (fun w -> Gen_ilp.delta_var enc w) members
      in
      let delta_sum =
        Lin_expr.sum (List.map (fun d -> Lin_expr.var d) deltas)
      in
      let weighted_h =
        Lin_expr.of_terms
          (Array.to_list (Array.mapi (fun k x -> (x, float_of_int k))
                            channel))
      in
      Model.add_constraint
        ~name:(Printf.sprintf "usecut_s%d_t%d" sink ty)
        model
        (Lin_expr.sub delta_sum weighted_h)
        Model.Ge 0.;
      (* valid first-edge cut: h on-path components own h distinct outgoing
         edges *)
      let candidate = Template.candidate_graph template in
      let out_edges =
        List.concat_map
          (fun w ->
            List.filter_map
              (fun m -> Gen_ilp.edge_var_opt enc w m)
              (Digraph.succ candidate w))
          members
      in
      let out_sum =
        Lin_expr.sum (List.map (fun e -> Lin_expr.var e) out_edges)
      in
      Model.add_constraint
        ~name:(Printf.sprintf "edgecut_s%d_t%d" sink ty)
        model
        (Lin_expr.sub out_sum weighted_h)
        Model.Ge 0.;
      let terms = ref [] in
      Array.iteri
        (fun k x ->
          if k >= 1 then begin
            let coef = float_of_int k *. (p ** float_of_int k) in
            if coef <> 0. then terms := (x, coef) :: !terms
          end)
        channel;
      Lin_expr.of_terms !terms
    in
    let intermediate = List.filter (fun ty -> ty <> sink_ty) chain in
    let lhs =
      Lin_expr.add
        (Lin_expr.const sink_fail)
        (Lin_expr.sum (List.map type_contribution intermediate))
    in
    Model.add_constraint ~name:(Printf.sprintf "rel_s%d" sink) model lhs
      Model.Le r_star
  in
  List.iter encode_sink (Template.sinks template);
  ( enc,
    { approx_estimate = -1.;
      theorem2_bound = -1.;
      constraint_count = Model.constraint_count model;
      variable_count = Model.var_count model;
      cert = None } )

(* Worst-sink Eq. 7 estimate and Theorem 2 bound on a configuration. *)
let approx_on_config template config =
  let partition = Template.partition template in
  let expanded = Template.expand_redundant_pairs template config in
  let sources = Template.sources template in
  let per_sink sink =
    let link =
      Reliability.Approx.functional_link expanded partition ~sources ~sink
    in
    let estimate =
      Reliability.Approx.failure_estimate partition
        ~type_fail:(type_fail template partition)
        link
    in
    let bound = Reliability.Approx.theorem2_bound partition link in
    (estimate, bound)
  in
  List.fold_left
    (fun (worst_r, worst_b) sink ->
      let r, b = per_sink sink in
      (Float.max worst_r r, Float.min worst_b b))
    (0., infinity)
    (Template.sinks template)

let run ?(obs = Archex_obs.Ctx.null) ?on_event ?(time_limit = 300.)
    ?(certify = false) ?(budget = Archex_resilience.Budget.unlimited)
    ?(jobs = 1) template ~r_star =
  Archex_obs.Trace.with_span (Archex_obs.Ctx.trace obs) "ilp_ar"
  @@ fun () ->
  let t0 = Archex_obs.Clock.now () in
  let enc, info = compile ~obs template ~r_star in
  let setup_time = Archex_obs.Clock.now () -. t0 in
  let metrics = Archex_obs.Ctx.metrics obs in
  if Archex_obs.Metrics.enabled metrics then begin
    Archex_obs.Metrics.set
      (Archex_obs.Metrics.gauge metrics "ar.variables")
      (float_of_int info.variable_count);
    Archex_obs.Metrics.set
      (Archex_obs.Metrics.gauge metrics "ar.constraints")
      (float_of_int info.constraint_count)
  end;
  match
    Gen_ilp.solve ~obs ?on_event
      ?time_limit:
        (Some
           (Option.value
              (Archex_resilience.Budget.slice ~frac:1.0 ~cap:time_limit
                 budget)
              ~default:time_limit))
      ~budget enc
  with
  | Gen_ilp.No_solution { stats } ->
      Synthesis.Unfeasible
        ( Synthesis.Proved_infeasible,
          info,
          { Synthesis.setup_time;
            solver_time = stats.Milp.Solver.elapsed;
            analysis_time = 0. } )
  | Gen_ilp.Exhausted { error; stats } ->
      Synthesis.Unfeasible
        ( Synthesis.Budget_exhausted
            { error; incumbent = None; bound = stats.Milp.Solver.best_bound },
          info,
          { Synthesis.setup_time;
            solver_time = stats.Milp.Solver.elapsed;
            analysis_time = 0. } )
  | Gen_ilp.Solved { solution; config; objective = cost; stats } ->
      let cert =
        if certify then
          Some
            (Archex_obs.Trace.with_span (Archex_obs.Ctx.trace obs) "certify"
             @@ fun () ->
             Archex_cert.certify (Gen_ilp.model enc)
               ~incumbent:(Some (cost, solution)))
        else None
      in
      let report =
        Rel_analysis.analyze ~obs ?on_event ~budget ~jobs template config
      in
      let estimate, bound = approx_on_config template config in
      Archex_obs.Gc_metrics.sample metrics;
      let info =
        { info with
          approx_estimate = estimate;
          theorem2_bound = bound;
          cert }
      in
      Synthesis.Synthesized
        ( Synthesis.architecture template config report,
          info,
          { Synthesis.setup_time;
            solver_time = stats.Milp.Solver.elapsed;
            analysis_time = report.Rel_analysis.elapsed } )
