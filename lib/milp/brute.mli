(** Exhaustive 0-1 oracle.

    Enumerates every Boolean assignment — exponential, intended only as the
    reference implementation that the PB search ({!Pb_solver}) is validated
    against in the test suite. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible

val solve : ?max_vars:int -> Model.t -> outcome
(** Minimize by enumeration.  Respects variables already fixed via
    {!Model.fix}.
    @raise Invalid_argument if the model has more than [max_vars]
    (default 25) free variables. *)
