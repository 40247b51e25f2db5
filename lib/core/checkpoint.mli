(** ILP-MR checkpoints: enough per-iteration state to replay a run
    deterministically.

    A checkpoint does {e not} snapshot the solver or the learned
    constraint rows themselves — it records, per completed iteration, the
    solved configuration and the analysis figures that drove
    [LEARNCONS].  Because {!Learn_cons.learn} is deterministic in those
    inputs, [Ilp_mr.run ~resume_from] reconstructs the extended model by
    replaying the learning calls, then continues the loop from the next
    iteration.
    Replayed iterations can even be re-certified: at each replay step the
    model is exactly the model the original iteration solved (learning
    happens after certification, in both live and replayed runs), so a
    resumed run still assembles a checkable certificate chain.

    The on-disk form is a single JSON object tagged
    [{"format": "archex-mr-ckpt", "version": 1}].  {!save} writes
    atomically (temp file + rename): a kill mid-write leaves the previous
    checkpoint intact.  {!of_json} ignores the ["backend"] name that
    files from before the single-search solver carry. *)

type iteration = {
  index : int;                     (** 1-based, as in {!Ilp_mr.iteration} *)
  solution : float array;          (** raw 0-1 assignment as solved *)
  edges : (int * int) list;        (** the configuration's edges *)
  cost : float;
  reliability : float;             (** worst-sink failure of the analysis *)
  per_sink : (int * float) list;
  k_estimate : int option;
      (** [Some k] iff the iteration learned constraints — the replay
          re-runs {!Learn_cons.learn} exactly for these *)
  new_constraints : int;
}

type t = {
  r_star : float;                  (** the run's reliability target *)
  strategy : string option;        (** ["estimated"] / ["lazy-one-path"] *)
  iterations : iteration list;     (** chronological *)
}

val to_json : t -> Archex_obs.Json.t
val of_json : Archex_obs.Json.t -> (t, string) result
val of_string : string -> (t, string) result

val save : string -> t -> (unit, string) result
(** Atomic {e durable} write: the ".tmp" sibling is flushed and
    [fsync]ed before the rename, so a crash at any point leaves either
    the previous checkpoint or the complete new one — never a
    truncated file behind a durable rename. *)

val load : string -> (t, string) result

val load_checked : string -> (t, Archex_resilience.Error.t) result
(** {!load} at the trust boundary: an unreadable, truncated or corrupt
    checkpoint surfaces as a typed
    [{!Archex_resilience.Error.Invalid_input}] carrying the decoder's
    message, never an exception. *)
