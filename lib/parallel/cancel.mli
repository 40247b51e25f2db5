(** Cooperative cancellation tokens.

    A token is a shared flag that one domain sets and others poll at safe
    points (solver tick loops, between work items).  Cancellation is
    cooperative: nothing is interrupted, the worker notices the flag at
    its next poll and winds down through its normal limit-exit path, so
    invariants (incumbents, proven bounds) survive cancellation.

    Tokens form an optional tree: cancelling a parent cancels every
    descendant, so one outer cancel can sweep a whole group of workers
    while each still holds a private token of its own. *)

type t

val create : ?parent:t -> unit -> t
(** A fresh, uncancelled token; with [parent], the token also reports
    cancelled whenever the parent (transitively) does. *)

val cancel : t -> unit
(** Set the flag.  Idempotent, safe from any domain. *)

val is_cancelled : t -> bool
(** Poll the flag (and the parent chain).  Lock-free. *)

val guard : t -> unit -> bool
(** [guard t] is [fun () -> is_cancelled t] — the shape solver backends
    take as [?should_stop]. *)
