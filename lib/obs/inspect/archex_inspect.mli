(** Search-effectiveness report over an inspected ILP-MR run.

    [Ilp_mr.run ~inspect:true] fills one {!insight} record per solved
    iteration; {!build} distills a run's insights into the
    [archex inspect] report: which constraints actually prune, which
    learned rows are dead weight, and how effective each iteration's
    oracle cuts are.  The records are typed values of this library,
    which needs no dependency on the synthesis stack. *)

type row = {
  id : int;            (** stable row id: insertion index in the model *)
  name : string;       (** declared name, or ["row<id>"] *)
  kind : string;       (** "template" / "requirement" / "learned" *)
  born : int;          (** birth iteration; 0 = base encoding *)
  props : int;
  conflicts : int;
  binding : int;
      (** the PB search's per-row counters ([Milp.Row_stats]): of one
          solve in an {!insight}, summed across all iterations in a
          report *)
}

type insight = {
  iteration : int;
  rows_total : int;    (** model rows when the iteration solved *)
  activity : row list;
      (** rows below [rows_total] with nonzero activity in this solve,
          by id *)
  learned_names : string list;
      (** names of the rows this iteration's analysis appended, in id
          order from [rows_total]: every learned row, active or dead *)
}

type iteration_summary = {
  index : int;
  rows_total : int;
  rows_learned : int;
  total_activity : int;
  learned_activity : int;
      (** activity attributed to rows with kind ["learned"] *)
}

type t = {
  iterations : iteration_summary list;  (** chronological *)
  rows : row list;       (** rows with nonzero total activity, by id *)
  dead_learned : row list;
      (** learned rows with zero activity in every iteration after their
          birth (counters all zero), by id *)
}

val build : insights:insight list -> t
(** Aggregate a run's insight records, chronological, as found on the
    [insight] field of the recorded iterations (replayed iterations have
    none). *)

val top_pruners : ?k:int -> t -> row list
(** The [k] (default 10) most effective rows, ranked by conflicts, then
    propagations. *)

val to_json : t -> Archex_obs.Json.t
(** Machine-readable report:
    [{"iterations": [...], "rows": [...], "dead_learned": [...]}]. *)

val to_markdown : ?top_k:int -> t -> string
(** Human-readable report: summary, model growth per iteration,
    top-[top_k] (default 10) pruning rows, per-iteration learned-cut
    effectiveness, and the dead learned rows. *)
