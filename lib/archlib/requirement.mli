(** Interconnection requirements (Sec. II, Eqs. 2–4) as a solver-independent
    AST.

    Templates accumulate requirements; [Archex.Gen_ilp] lowers each form to
    linear rows over the edge decision variables [e_ij] (and the derived
    usage indicators [δ_i]).  Smart constructors mirror the paper's
    equations. *)

type cmp = Le | Ge | Eq

type t =
  | Edge_card of (int * int) list * cmp * int
      (** cardinality of a set of candidate edges (Eq. 2 family) *)
  | Linear_edges of ((int * int) * float) list * cmp * float
      (** arbitrary linear form over edge variables (Eq. 4 family) *)
  | Conditional_connect of (int * int) list * (int * int) list
      (** [∨ antecedents ≤ ∨ consequents] (Eq. 3) *)
  | Usage_balance of (int * float) list * (int * float) list
      (** [Σ w·δ_provider ≥ Σ w·δ_consumer] over usage indicators *)
  | Require_used of int
      (** [δ_v = 1]: the component must be instantiated *)
  | Usage_order of int list
      (** Interchangeable components.  The declaration promises that
          swapping any two of the listed nodes maps the encoded model onto
          itself: same type, cost, failure probability and capacity, the
          same candidate predecessors and successors at the same switch
          costs, and the requirements naming either node exchanged for
          one another ({!Template.validate_all} checks this; sinks are
          never interchangeable, as ILP-MR learns rows per sink).
          [Archex.Gen_ilp] sorts the nodes by id and lowers the
          declaration to the instantiation order [δ_{v1} ≥ δ_{v2} ≥ …]
          plus one lex-leader row per adjacent pair, which keep one
          representative of each class of wirings that differ only by a
          permutation of the listed nodes.  The optimum is preserved when
          the promise holds; otherwise the rows may cut it off. *)

(** {1 Smart constructors} *)

val at_least_connections : from_:int -> to_:int list -> int -> t
(** Eq. 2 with ≥: at least [k] of the edges [from_ → t], [t ∈ to_]. *)

val at_most_connections : from_:int -> to_:int list -> int -> t
val exactly_connections : from_:int -> to_:int list -> int -> t

val at_least_incoming : to_:int -> from_:int list -> int -> t
(** Eq. 2 transposed: edges [f → to_]. *)

val at_most_incoming : to_:int -> from_:int list -> int -> t
val exactly_incoming : to_:int -> from_:int list -> int -> t

val if_connected_then : from_:int list -> via:int -> to_:int list -> t
(** Eq. 3: if any [l → via] edge exists then some [via → b] edge must. *)

val node_balance :
  node:int -> supply:(int * float) list -> demand:(int * float) list -> t
(** Eq. 4 at [node]: [Σ w_b·e_{b,node} ≥ Σ w_l·e_{node,l}] where [supply]
    pairs predecessors with their [w] and [demand] successors with
    theirs. *)

val supply_covers_demand :
  providers:(int * float) list -> consumers:(int * float) list -> t
(** System-wide power-flow requirement over usage indicators. *)

val require_powered : int -> t
val forbid_edge : int -> int -> t
val force_edge : int -> int -> t

val use_in_order : int list -> t
(** {!Usage_order} over interchangeable components. *)

val pp : Format.formatter -> t -> unit
