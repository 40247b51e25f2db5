(** ILP with Approximate Reliability (Algorithm 3).

    Compiles the reliability requirement into the ILP itself using the
    approximate algebra of Sec. IV: per sink and component type, counting
    indicators [x_ijk] select the degree of redundancy [h_ij = k]
    (Eqs. 10–11, via walk indicators per Lemma 1) and the linearized Eq. 9

    {[  Σ_{j,k}  k · p_j^k · x_ijk  ≤  r*_i  ]}

    bounds the estimated failure probability.  One monolithic solve, no
    exact-analysis loop; the encoding is polynomial in the template size. *)

type info = {
  approx_estimate : float;
      (** [r~]: worst-sink estimate of Eq. 7 evaluated on the synthesized
          configuration (−1 when unfeasible) *)
  theorem2_bound : float;
      (** worst-sink (smallest) guaranteed [r~/r] ratio on the result *)
  constraint_count : int;  (** rows in the compiled model *)
  variable_count : int;
  cert : (Archex_obs.Json.t, string) result option;
      (** optimality certificate of the monolithic solve ({!Archex_cert});
          [None] when the run was not asked to certify *)
}

val run :
  ?obs:Archex_obs.Ctx.t ->
  ?on_event:(Archex_obs.Event.t -> unit) ->
  ?time_limit:float ->
  ?certify:bool ->
  ?budget:Archex_resilience.Budget.t ->
  ?jobs:int ->
  Archlib.Template.t -> r_star:float -> info Synthesis.result
(** Synthesize with the approximate-reliability encoding.  [jobs]
    (default 1) parallelizes the a-posteriori per-sink reliability checks
    ({!Rel_analysis.analyze}) without changing any reported figure.  The template must
    declare a type chain ({!Archlib.Template.set_type_chain}); per Theorem 3
    the result is optimal up to the Theorem 2 error bound, and the exact
    reliability reported in the architecture lets callers check the actual
    requirement a posteriori.  [time_limit] (default 300 s) caps the
    monolithic solve; a time-limited call falls back to the solver's best
    incumbent.

    [budget] (default unlimited) clamps the solve under the global
    allowance and arms {!Rel_analysis}'s degradation ladder for the a
    posteriori check.  A proved-infeasible model reports
    [Unfeasible (Proved_infeasible, _, _)]; an exhausted solve with no
    incumbent reports [Unfeasible (Budget_exhausted _, _, _)] carrying
    the typed binding limit and the search's proven cost lower bound —
    the two are never conflated.

    [obs] (default disabled) wraps the run in an ["ilp_ar"] span enclosing
    the ["compile"], ["solve"] and ["reliability"] spans, and tracks the
    compiled model size in the [ar.variables] / [ar.constraints] gauges.
    [on_event] forwards the PB search's progress callback.

    [certify] (default false) re-proves the monolithic optimum with
    {!Archex_cert.certify} (inside a ["certify"] span when tracing) and
    stores the result in the info's [cert] field, under
    {!Archex_cert.default_node_budget}.
    @raise Invalid_argument if the template declares no type chain or a
    type's members have differing failure probabilities. *)

val compile :
  ?obs:Archex_obs.Ctx.t -> Archlib.Template.t -> r_star:float ->
  Gen_ilp.t * info
(** [GENILP-AR] alone (setup phase): the compiled encoding and its size —
    what Table III's setup column measures.  The info's [approx_estimate]
    and [theorem2_bound] are meaningful only after a solve, and are [-1]
    here. *)
