(** Search-effectiveness report over an inspected ILP-MR run.

    Consumes the per-iteration [insight] records produced by
    [Ilp_mr.run ~inspect:true] (plain {!Archex_obs.Json} objects, so this
    library needs no dependency on the synthesis stack) and distills them
    into the [archex inspect] report: which constraints actually prune,
    which learned rows are dead weight, how effective each iteration's
    oracle cuts are, and how redundant successive re-solves are. *)

type row = {
  id : int;            (** stable row id: insertion index in the model *)
  name : string;
  kind : string;       (** "template" / "requirement" / "learned" *)
  born : int;          (** birth iteration; 0 = base encoding *)
  props : int;
  conflicts : int;
  binding : int;       (** counters summed across all iterations *)
}

type iteration_summary = {
  index : int;
  rows_total : int;
  rows_carried : int option;
  rows_learned : int;
  redundancy_ratio : float option;
  prefix_overlap : float option;
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
  redundancy_ratio : float option;      (** last iteration's ratio *)
  warm_start_potential : float option;  (** final running score *)
}

val build : insights:Archex_obs.Json.t list -> t
(** Aggregate a run's insight records (chronological, as found on the
    [insight] field of the recorded iterations).  Records that are not
    objects, or iterations without insight (replays), may simply be
    omitted from the list. *)

val top_pruners : ?k:int -> t -> row list
(** The [k] (default 10) most effective rows, ranked by conflicts, then
    propagations. *)

val to_json : t -> Archex_obs.Json.t
(** Machine-readable report: [{"iterations": [...], "rows": [...],
    "dead_learned": [...], "redundancy_ratio": _,
    "warm_start_potential": _}]. *)

val to_markdown : ?top_k:int -> t -> string
(** Human-readable report: summary, redundancy timeline, top-[top_k]
    (default 10) pruning rows, per-iteration learned-cut effectiveness,
    and the dead learned rows. *)
